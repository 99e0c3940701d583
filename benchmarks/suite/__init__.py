"""The repository's layered benchmark (see README.md in this directory)."""
