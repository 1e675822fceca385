"""Exact symbolic calculus for ell-modular Weil-Deligne representations:
normal forms, local constants, the semisimple tensor product, the V/CV/C
correspondences, and a finite-field matrix oracle for all of it."""

from .field import FieldCtx, FieldElem, make_ctx, mult_order
from .laurent import (FactorExpr, RationalFraction, UnitExpr, euler_factor,
                      is_unit)
from .weil import (FusionTable, Line, RamifiedAbstract, UnramifiedChar,
                   dual_irr, fuse, line_of, twist)
from .deligne import (Character, Cyc, DeligneClass, Seg, cv_map, cyc,
                      det_class, dsum, dual_class, normalize, seg,
                      split_cyclic, tensor_ss, twist_class, zero_class)
from .matrixmodel import (MatrixDeligne, decompose, matrix_dual,
                          oracle_tensor_ss, raw_tensor, realize, semisimplify,
                          validate)
from .factors import (check_multiplicativity, epsilon_factor, gamma_factor,
                      l_factor, l_factor_matrix)
from .gln import (GenericRep, GLSegment, NonSuperCusp, SuperCusp,
                  banal_tnb_split, c_map, central_char, check_preservation,
                  dual_rep, j_ell, make_generic, rs_epsilon_factor,
                  rs_gamma_factor, rs_l_factor, twist_rep, unlinked, v_map)

__version__ = "0.1.0"
