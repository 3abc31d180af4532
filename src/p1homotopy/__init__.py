"""Exact algebra of pointed rational self-maps of the projective line.

Resultants by fraction-free elimination with a cofactor oracle, Bezout
certificates, the monoid sum of pointed maps, homotopy certificates over
R[T] with chain verification, projective-linear families, and punctured-
plane families with ideal-membership witnesses.  Everything is exact; there
is no floating point anywhere.

All values are immutable after construction and all operations are pure,
so they may be shared freely between threads.
"""

from .rings import (
    ExactDivisionError,
    NotPrimeError,
    QQ,
    RingMismatchError,
    RingTag,
    Scalar,
    ZZ,
)
from .poly import Poly
from .mpoly import MPoly
from .resultants import (
    FormalDegreeError,
    OracleSizeError,
    is_unit,
    reciprocal,
    res_bezout,
    resultant,
    resultant_oracle,
    resultant_product_oracle,
    split_poly,
    sylvester_entries,
)
from .monoid import (
    DegreeTooHighError,
    MapValidationError,
    NotMonicError,
    PointedMap,
    ResultantNotUnitError,
    SL2Witness,
    bezout_pair,
    dehomogenize,
    homogenize,
    named,
    oplus,
    validate,
)
from .chains import Chain, Link
from .homotopy import (
    CertResultantNotUnitError,
    CertValidationError,
    HomotopyCert,
    NotMonicInXError,
    XDegreeTooHighError,
    builtin_chain,
    endpoint,
    reverse,
    validate_cert,
    verify_chain,
)
from .projlinear import (
    Mat2,
    MatrixFamily,
    builtin_matrix_chain,
    det_family,
    endpoint_matrix,
    fixes_infinity,
    image_of_infinity_in_open,
    is_valid_family,
    projective_unit,
    projectively_equal,
    verify_matrix_chain,
)
from .plane import (
    MembershipCertificate,
    MembershipNotFound,
    PlaneFamily,
    builtin_plane_chain,
    find_membership,
    plane_endpoint,
    verify_membership,
    verify_plane_chain,
)
from .exprio import ParseError, SchemaError, parse_pair, parse_poly, print_map, print_poly
from .randgen import RandomMapSpec, SamplingBudgetError, gen_valid_map
from .properties import (
    IO_LAWS,
    MONOID_LAWS,
    RESULTANT_LAWS,
    PropertyResult,
    UnknownPropertyError,
    run_property,
)
from .selftest import CheckResult, run_all

__version__ = "0.1.0"
