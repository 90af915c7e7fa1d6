"""Anytime weighted partial MaxSAT solving with weight-clustering
approximation strategies, a bundled CDCL backend, and a verification
harness.

The package root re-exports nothing: import the submodule you use
(`from apxmaxsat import search`), so that loading one layer never loads
another. The solve path (wcnf, clustering, encodings, satcore, search,
cli) never imports harness, and so never loads numpy."""

__version__ = "0.1.0"
