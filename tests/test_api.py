"""The public surface: exported names, call signatures and CLI flags.

These are the names scripts and configs depend on; a change here is a
breaking change and must be made on purpose, by editing this file.
"""

import argparse
import inspect

import borrowoc
from borrowoc import cli

ALL = [
    "__version__",
    "Interval", "RngStream", "norm_cdf", "norm_quantile", "integrate",
    "find_root", "maximize_1d",
    "NumericsError", "NonConvergenceError", "InvalidBracketError",
    "DomainError",
    "ScenarioOneArm", "ScenarioTwoArm",
    "ArmSummary", "BorrowingMethod", "NormalPosterior",
    "NO_BORROWING", "FIXED_POWER_PRIOR", "EMPIRICAL_BAYES",
    "fixed_pp_posterior", "eb_delta", "eb_delta_numeric", "posterior_for",
    "posterior_tail", "decide_borrow", "decide_no_borrow",
    "RejectionRegion", "rejection_region", "rejection_prob", "interval_count",
    "OCPoint", "oc_fixed_external", "t1e_closed_form_fixed_pp",
    "power_calibrated", "oc_random_external_fixed_pp", "oc_random_external_mc",
    "OCProfile", "reject_prob_two_arm", "t1e_profile", "power_profile",
    "oc_fixed_external_two_arm", "oc_random_external_two_arm",
    "oc_random_external_two_arm_mc", "power_calibrated_two_arm",
    "ReplicateRecord", "RunReport", "run_algorithm1", "run_algorithm2",
    "run_grid", "summarize",
    "ScenarioConfig", "ConfigError", "parse_config", "dispatch", "main",
]

# parameter names in order; keyword-only parameters carry a leading "*"
SIGNATURES = {
    "run_algorithm1": ("scen", "thetaE", "method", "nsim", "seed", "*workers",
                       "*literal", "*audit_inner_nsim"),
    "run_algorithm2": ("scen", "thetaE", "method", "nsim", "seed", "*literal",
                       "*offsets"),
    "run_grid": ("scen", "dE_means", "method"),
    "t1e_profile": ("scen", "dE_mean", "method", "offsets"),
    "power_profile": ("scen", "dE_mean", "method", "offsets"),
    "oc_fixed_external_two_arm": ("scen", "dE_mean", "method"),
    "oc_random_external_two_arm": ("scen", "thetaE", "method", "offsets",
                                   "tol", "*engine"),
}

SUBCOMMANDS = ("one-arm-fixed", "one-arm-grid", "one-arm-random",
               "two-arm-profile", "two-arm-random", "algorithm1",
               "algorithm2", "region")
FLAGS = ["--config", "--help", "--mc-audit", "--nsim", "--out", "--seed",
         "--tol", "-h"]


def _params(fn) -> tuple:
    return tuple(("*" if p.kind is p.KEYWORD_ONLY else "") + p.name
                 for p in inspect.signature(fn).parameters.values())


def test_exported_names_are_frozen():
    assert borrowoc.__all__ == ALL
    for name in ALL:
        assert hasattr(borrowoc, name), name


def test_call_signatures_are_frozen():
    for name, params in SIGNATURES.items():
        assert _params(getattr(borrowoc, name)) == params, name


def test_cli_subcommands_and_flags_are_frozen():
    assert cli.SUBCOMMANDS == SUBCOMMANDS
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == SUBCOMMANDS
    for name, sp in sub.choices.items():
        flags = sorted(o for a in sp._actions for o in a.option_strings)
        assert flags == FLAGS, name
