"""Exact symbolic kernel for torsion functors of a pair of ideals.

Polynomial arithmetic over QQ or GF(p), a Groebner engine, ideal algebra
with monomial fast paths, the pair-torsion functor computed by independent
routes, Betti/depth machinery, vanishing invariants, and the collapse rule
and position-0 kernel of the generalized Čech complex, all exposed through
the `pairloc` CLI.
"""

from .betti import (INFINITY, BettiTable, depth_at_face, depth_quotient,
                    hochster_betti, polarize)
from .cech import collapse, position_zero_kernel
from .errors import (ExponentOverflowError, PairlocError, ParseError,
                     PreconditionError, RingMismatchError)
from .groebner import GroebnerBasis, buchberger, normal_form
from .ideals import (FacePrime, Ideal, MonomialIdeal, colon, dim_quotient,
                     intersect, radical_member, saturate)
from .invariants import (InvariantReport, ara_upper_bound, build_report,
                         lh_vanishes, pair_depth, top_nonvanishing,
                         vanishing_bounds)
from .oracles import gamma_colimit_oracle, gamma_minprime_oracle, koszul_tor
from .ring import (GREVLEX, LEX, Polynomial, RingSpec, elimination,
                   parse_polynomial)
from .support import PairSpec, s_certificate, w_member, wtilde_member
from .torsion import (GammaResult, PairContext, ass_gamma, gamma_member,
                      gamma_monomial, is_torsion)

__version__ = "0.1.0"
