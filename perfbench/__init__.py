"""perfbench: the repository benchmark (see perfbench/README.md)."""
