"""Slow, direct definitions that the tests compare the program with.

Each module checks the ``cyclosieve`` module of the same name: per-tableau
jeu de taquin, row insertion, Bruhat order by rank tables, tableau-by-tableau
Schur sums, KL immanants and cellular matrices multiplied out, ribbon
tilings labelled cell by cell, and the subset and multiset rotations.  The
program never imports them.  Methods that only tests called are functions
here that take the object first.
"""
