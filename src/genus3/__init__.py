"""Exact arithmetic and table verification for polarized manifolds of sectional genus three.

Submodules:

* ``chowcurve`` - integer Chow-ring arithmetic on projectivized bundles
  over a smooth curve, plus h^0 counts and obstruction numbers for split
  bundles over the projective line;
* ``surflat`` - intersection lattices for the polarized surfaces that
  occur as scroll bases, with blow-up / weight-sequence arithmetic;
* ``classify`` - the classification engines: splitting-type enumeration
  with pruning rules, Veronese parameter solver, reduction bookkeeping
  and the nef-adjoint degree window;
* ``tablecli`` - table fixtures, verification reports, the brute-force
  ring oracle self-test, and the command-line interface.

Submodules are imported on first use, so ``python -m genus3.tablecli``
runs the module once, as ``__main__``.
"""

__all__ = ["chowcurve", "classify", "surflat", "tablecli"]
__version__ = "0.1.0"
