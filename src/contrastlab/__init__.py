"""Desk-scale contrastive representation learning, extended with soft-target
mixed queries and built on handwritten float64 numerics so every gradient is
verifiable by finite differences.

The Python API lives in the submodules (`contrastlab.training`,
`contrastlab.encoder`, ...); the package root exports the error classes.
"""

from .errors import ConfigurationError, ContrastLabError, DivergedRunError, FormatError

__version__ = "0.1.0"
