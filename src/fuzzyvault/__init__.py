"""Fingerprint fuzzy vaults over GF(2^32).

Encode a minutiae template and a random secret into a vault of genuine
and chaff points; a sufficiently similar capture of the same finger
aligns, picks the genuine points back out and recovers the secret via
polynomial interpolation plus a CRC check.  Includes the attack-cost
analysis, an accuracy harness and a small enroll/verify service.
"""

import types

from .aligner import MatchParams
from .decoder import (
    DEFAULT_STRATEGY,
    ITERATIVE_SELECTION,
    RANDOM_GENERATION,
    RANDOM_SELECTION,
    MatchResult,
    SubsetStrategy,
    decode_vault,
    try_unlock,
)
from .evaluation import (
    BUILTIN_CONFIGS,
    AccuracyReport,
    Dataset,
    EvalConfig,
    Finger,
    make_synthetic_dataset,
    perturb_template,
    run_fvc_protocol,
    synth_template,
)
from .minutiae import (
    ChaffExhausted,
    InsufficientMinutiae,
    Minutia,
    OutOfBounds,
    ParseError,
    Template,
    parse_template,
    read_template,
    select_minutiae,
)
from .security import (
    AttackEstimate,
    SecurityModel,
    estimate,
)
from .vault import (
    Vault,
    VaultParams,
    VaultPoint,
    encode_vault,
    vault_from_dict,
    vault_to_dict,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
__all__.append("__version__")
