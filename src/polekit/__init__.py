"""polekit: worldline multipole sources, their transport between
coordinate charts, and a distributional pairing oracle that verifies
every transport."""

from types import ModuleType as _ModuleType

from .charts import Chart, ChartPair, compose_charts, get as registry_get
from .classify import (
    ChargeProbe,
    ClassificationReport,
    charge_probe_variations,
    extract_charge,
    make_charge_probe,
    test_closed,
    test_electric_order,
    test_order,
)
from .errors import (
    DomainError,
    EvaluationError,
    PolekitError,
    QuadratureError,
    RegistryError,
    SceneError,
    SymmetryError,
)
from .fields import StaticSource, falloff_exponent
from .jets import Jet2
from .moments import (
    AdaptedCoefficients,
    DipoleComponents,
    Monopole,
    QuadrupoleComponents,
    component_rank,
    embed_dipole_as_quadrupole,
    extract_dipole,
    gamma_from_zeta,
    make_electric_dipole,
    make_electric_quadrupole,
    make_static_dipole,
    make_toroidal_quadrupole,
    zeta_from_gamma,
)
from .pairing import (
    SourceBundle,
    make_test_form,
    pair_bundle,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    pull_back_test_form,
)
from .scene import Scene, parse_scene
from .transport import TransportResult, transform_dipole, transform_quadrupole
from .worldlines import Worldline

__version__ = "0.1.0"

# Every public name imported above; the submodules are not exports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
