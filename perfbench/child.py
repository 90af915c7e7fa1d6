"""Stand-in for `python -m apxmaxsat` in the benchmark's CLI children.

    python3 perfbench/child.py OUT_FILE TRACE solve INSTANCE [solve flags]

Runs apxmaxsat.cli.main with the given arguments and exits with its code.
On the way out it writes a JSON object to OUT_FILE: peak_rss_kb, the
process's own peak RSS (VmHWM), and with TRACE 1 the spans of the layer
wrappers in tracer.py, including the import of apxmaxsat.cli.

VmHWM belongs to the memory map made by exec, so it is this process's peak
alone. ru_maxrss from wait4 is not: exec records the replaced map's peak in
it, and under vfork that map is the parent's.
"""

from __future__ import annotations

import json
import sys
import time


def status_kb(field: str, pid: str = "self") -> int:
    """A kB field of /proc/<pid>/status, such as VmRSS or VmHWM."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} is missing from /proc/{pid}/status")


def main(argv: list[str]) -> int:
    out_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    result: dict = {}
    try:
        if not trace:
            from apxmaxsat import cli
            return cli.main(cli_args)
        from tracer import Tracer
        tracer = Tracer()
        started = time.monotonic()
        from apxmaxsat import cli
        tracer.spans.append(["cli.import", started, time.monotonic(), None, 0, 0.0, {}])
        try:
            with tracer.installed(), tracer.solve(0, "cli.main"):
                return cli.main(cli_args)
        finally:
            result["spans"] = tracer.spans
    finally:
        result["peak_rss_kb"] = status_kb("VmHWM")
        with open(out_path, "w") as out:
            json.dump(result, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
