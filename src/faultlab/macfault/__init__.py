"""Weight-stationary systolic-array model with logic-cone MAC faults.

Covers fault signatures (stuck-bit masks and a carry flag per faulty PE, in
a ``FaultMap``) and criticality classification, seeded fault maps, the
FSR-driven PE deactivation protocol, faulty inference on the array,
fault-aware training, and analytic MAC counts. Its three campaigns, the
LSB-sensitivity sweep, FSR deactivation and fault-aware retraining, are one
library call each (``sweeps``).
"""

from .faults import (
    CRITICAL,
    NON_CRITICAL,
    NON_CRITICAL_LSBS,
    PRODUCT_WIDTH,
    FaultMap,
    apply_fault_to_products,
    faulty_mac,
    worst_case_error,
)
from .array import (
    ArrayConfig,
    ArrayState,
    DeactivationInfeasible,
    FaultStatusRegister,
    SignatureMix,
    build_fsr,
    deactivate,
    per_column_fault_count,
    run_array,
    seed_fault_map,
)
from .counts import (
    Conv2d,
    Flatten,
    Linear,
    NetDescriptor,
    Pool,
    alexnet_descriptor,
    lenet5_descriptor,
    mac_count,
)
from .sweeps import deactivation_campaign, lsb_sensitivity_sweep, retrain_campaign
from .training import fault_aware_train
from .mapfile import save_fault_map

__all__ = [
    "ArrayConfig",
    "ArrayState",
    "CRITICAL",
    "Conv2d",
    "DeactivationInfeasible",
    "FaultMap",
    "FaultStatusRegister",
    "Flatten",
    "Linear",
    "NON_CRITICAL",
    "NON_CRITICAL_LSBS",
    "NetDescriptor",
    "PRODUCT_WIDTH",
    "Pool",
    "SignatureMix",
    "alexnet_descriptor",
    "apply_fault_to_products",
    "build_fsr",
    "deactivate",
    "deactivation_campaign",
    "fault_aware_train",
    "faulty_mac",
    "lenet5_descriptor",
    "lsb_sensitivity_sweep",
    "mac_count",
    "per_column_fault_count",
    "retrain_campaign",
    "run_array",
    "save_fault_map",
    "seed_fault_map",
    "worst_case_error",
]
