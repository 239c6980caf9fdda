"""Exact invariants of the singular block of G1T-modules for SL(n+1).

The package computes, in exact integer arithmetic, the block's weight
table, the dimensions of its simples and parabolic covers, Jantzen-style
simplicity certificates, the full radical and socle series of baby Verma
modules, Ext^1 between simples, and the (conditionally normalised) Loewy
layers of projective covers.  The `loewylab` command line fronts the same
functions and can machine-verify every identity the library asserts.
"""

from .block import BlockContext, make_context

__all__ = ["BlockContext", "make_context"]

__version__ = "0.1.0"
