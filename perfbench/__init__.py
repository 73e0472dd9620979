"""Layer-attributed benchmark of the CPLDS engine; see README.md."""
