"""The systems and point transformations that `scripts/record_outputs.py`
records `transform_system` over; the tests read them from here too.

Each system is (omega1, omega2) in x, y, z, y', z' and the parameters c1,
c2, and each map is ((X, Y, Z), explicit inverse or None).  `build`
parses one pair into an OdeSystem2 and a PointTransformation.
"""

from csalin.canon import PointTransformation
from csalin.cubic import OdeSystem2
from csalin.expr import VarContext, parse

PARAMS = frozenset({"c1", "c2"})
CTX = VarContext(parameters=PARAMS)
NEW_CTX = VarContext("X", ("Y", "Z"), ("Y'", "Z'"), ("Y''", "Z''"), PARAMS)

# the last system is not CR
TRANSFORM_SYSTEMS = (
    ("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz"),
    ("-dy^2 + dz^2 + c1*dy - c2*dz", "-2*dy*dz + c2*dy + c1*dz"),
    ("0", "0"), ("y*dz - x*z + dy^2/4", "x*dy + y^2 - z"))

# the identity, maps affine in y and z with x-dependent and parametric
# coefficients under an affine or a Moebius X, the exp-polar map
# Y + i Z = e^(y + i z) under X = x and X = 1/x (the scalar complex route
# for the first two systems; the real route for the free particle, whose
# U'' = U'^2/U puts i in a denominator, and for the last system, which is
# not CR and is refused for its bare z), then the refusals: outside the
# supported family, a constant X, and y^3 without and with its inverse
TRANSFORM_MAPS = (
    (("x", "y", "z"), None),
    (("x", "exp(-x)*y", "exp(-x)*z"), None),
    (("2*x + 1", "x*y + z + x^2", "y - z"), None),
    (("x", "c1*y - c2*z", "c2*y + c1*z + x"), None),
    (("1/x", "x*y + z", "y + 2*z"), None),
    (("3 - 2/x", "cos(x)*y", "z + sin(x)"), None),
    (("x", "exp(y)*cos(z)", "exp(y)*sin(z)"), None),
    (("1/x", "exp(y)*cos(z)", "exp(y)*sin(z)"), None),
    (("x", "sin(y)", "cos(z)"), None),
    (("3", "y", "z"), None),
    (("x", "y^3", "z"), None),
    (("x", "y^3", "z"), {"x": "X", "y": "Y^(1/3)", "z": "Z"}),
)


def build(system: tuple, xyz: tuple, inverse: dict | None) -> tuple:
    """(OdeSystem2, PointTransformation) of one system and one map.
    Building the map warns where its Jacobian is singular."""
    T = PointTransformation(
        CTX, *(parse(e, CTX) for e in xyz), inverse=inverse and {
            k: parse(v, NEW_CTX) for k, v in inverse.items()})
    return OdeSystem2(CTX, *(parse(e, CTX) for e in system)), T
