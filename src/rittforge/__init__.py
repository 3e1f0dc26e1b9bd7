"""rittforge: exact composition algebra for polynomials and correspondences.

Subpackages by capability:

- dense: the dense univariate algorithms every polynomial class wraps
- gaussian, poly, ratfun, bipoly: exact arithmetic foundation
- decompose: functional decomposition and rewrite moves
- characters: multiplicative characters on the composition semigroup
- equivalence: affine equivalence decisions and sandwich products
- corrfinite: correspondences on finite sets, exhaustive verification
- hcorr: algebraic correspondences via resultant elimination
- julia: orbit classification and grid rendering
- serialize: JSON schemas and the map-expression parser
- cli: command-line frontend
"""

__version__ = "0.1.0"
