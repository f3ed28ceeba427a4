"""Exact toolkit for mixed Whittaker-symplectic (Klyachko) models of GL_n.

Subpackages:

- gf, fqpoly, groups: finite fields, GL_n(F_q) enumeration, conjugacy
  classes by invariant factors, the subgroups H_{r,2k} and psi_r;
- arena, characters, gelfand: exact mod-ell character theory, induced
  Klyachko characters, and the Gelfand-model verifier;
- speh: Speh blocks and their highest derivatives, Tadic parameters,
  the model-assignment map kappa;
- weyl, periods: exponent-vector and residue-survival bookkeeping for
  Eisenstein constant terms, and symbolic L-value period formulas;
- paramparse, cli: the parameter expression grammar and the command
  line front end.

The package holds what the commands run.  The references the tests
check it against (the Zelevinsky segment calculus behind the highest
derivatives, contragredients, mu_Q) live in tests/oracles.py.
"""

__version__ = "0.1.0"
