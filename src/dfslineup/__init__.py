"""Weekly fantasy-football forecasting, exact lineup optimization, and validation."""

__version__ = "0.1.0"
