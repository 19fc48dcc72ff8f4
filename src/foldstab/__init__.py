"""Exact folding, tilting, stability, and braid toolkit for Dynkin quivers.

Names are imported from their modules: `foldstab.quiver`, `foldstab.reps`,
`foldstab.hearts`, `foldstab.cells`, `foldstab.braid`, and so on.
"""

__version__ = "0.1.0"
