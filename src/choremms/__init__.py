"""Strategyproof maxmin-share (MMS) allocation of indivisible chores.

A library and CLI for exact MMS computation, four strategyproof allocation
algorithms, and verification suites for strategyproofness, monotonicity and
lower-bound witnesses.
"""

from .algorithms import (
    ALGORITHMS,
    PickSchedule,
    allocate,
    build_schedule,
    check_schedule,
    divide_choose_3,
    label_count,
    label_sets,
    randdecl,
    randdecl_expected_cost,
    roundrobin,
    seqpick,
)
from .gen import GenSpec, generate, run_batch
from .mms import CAP, MmsCapError, MmsResult, evaluate, mms_bounds, mms_exact, mms_value
from .model import (
    Allocation,
    CostMatrix,
    EvalReport,
    Model,
    load_instance,
    rank,
    rankings,
    ratio_of,
    validate,
)
from .verify import (
    DeviationReport,
    fixture_instances,
    monotonicity_check,
    sp_check_ordinal,
    sp_check_randomized,
    witness_ordinal_det,
    witness_ordinal_rand,
)

__version__ = "0.1.0"
