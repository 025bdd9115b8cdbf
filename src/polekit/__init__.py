"""polekit: worldline multipole sources, their transport between
coordinate charts, and a distributional pairing oracle that verifies
every transport."""

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
    PairingReport,
    SourceBundle,
    make_test_form,
    pair_bundle,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    pull_back_test_form,
)
from .scene import Scene, parse_scene
from .transport import TransportResult, dipole_part, transform_dipole, \
    transform_quadrupole
from .worldlines import Worldline

__version__ = "0.1.0"

__all__ = [
    "AdaptedCoefficients",
    "Chart",
    "ChartPair",
    "ChargeProbe",
    "ClassificationReport",
    "DipoleComponents",
    "DomainError",
    "EvaluationError",
    "Jet2",
    "Monopole",
    "PairingReport",
    "PolekitError",
    "QuadratureError",
    "QuadrupoleComponents",
    "RegistryError",
    "Scene",
    "SceneError",
    "SourceBundle",
    "StaticSource",
    "SymmetryError",
    "TransportResult",
    "Worldline",
    "charge_probe_variations",
    "component_rank",
    "compose_charts",
    "dipole_part",
    "embed_dipole_as_quadrupole",
    "extract_charge",
    "extract_dipole",
    "falloff_exponent",
    "gamma_from_zeta",
    "make_charge_probe",
    "make_electric_dipole",
    "make_electric_quadrupole",
    "make_static_dipole",
    "make_test_form",
    "make_toroidal_quadrupole",
    "pair_bundle",
    "pair_dipole",
    "pair_monopole",
    "pair_quadrupole",
    "parse_scene",
    "pull_back_test_form",
    "registry_get",
    "test_closed",
    "test_electric_order",
    "test_order",
    "transform_dipole",
    "transform_quadrupole",
    "zeta_from_gamma",
]
