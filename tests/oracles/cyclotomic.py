"""Cyclotomic residues printed through the polynomial text in q, renamed."""

from __future__ import annotations

from cyclosieve.cyclotomic import CyclotomicElement

from .qpolys import polynomial_repr


def element_repr(x: CyclotomicElement) -> str:
    """The text of ``x``: its residue printed in q, and q renamed z{m}."""
    return "(" + polynomial_repr(x.residue).replace("q", f"z{x.order}") + ")"
