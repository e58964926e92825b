"""Schema induction and synthetic annotation via guided language-model prompting."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A usage or configuration error: the CLI exits 2 on it.

    Defined here, not in ``config``, so the analysis commands can raise it
    without loading the run configuration's modules."""
