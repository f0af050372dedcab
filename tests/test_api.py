"""The public surface: exported names, call signatures and CLI flags.

These are the names scripts and configs depend on; a change here is a
breaking change and must be made on purpose, by editing this file.
"""

import argparse
import dataclasses
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
    "run_algorithm1": ("scen", "thetaE", "method", "nsim", "seed", "*literal",
                       "*audit_inner_nsim"),
    "run_algorithm2": ("scen", "thetaE", "method", "nsim", "seed", "*literal",
                       "*offsets"),
    "run_grid": ("scen", "dE_means", "method"),
    "t1e_profile": ("scen", "dE_mean", "method", "offsets"),
    "power_profile": ("scen", "dE_mean", "method", "offsets"),
    "oc_fixed_external_two_arm": ("scen", "dE_mean", "method"),
    "oc_random_external_two_arm": ("scen", "thetaE", "method", "offsets",
                                   "tol"),
    "reject_prob_two_arm": ("scen", "theta_c", "theta_t", "dE_mean",
                            "method"),
    "summarize": ("records", "seed", "nsim", "scenario"),
    "rejection_region": ("scen", "external_mean", "method"),
    "maximize_1d": ("f", "domain", "tol"),
}

# a report's fields; ``records`` is a sequence of ReplicateRecord that also
# carries one array attribute per record field
RUN_REPORT_FIELDS = ("records", "mean_t1e", "mean_power_diff", "t1e_min",
                     "t1e_max", "t1e_median", "power_diff_min",
                     "power_diff_max", "power_diff_median", "seed", "nsim",
                     "scenario")
REPLICATE_COLUMNS = ("replicate", "dE_mean", "t1e_borrow", "power_borrow",
                     "power_calibrated", "power_diff")

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


def test_run_report_attributes_are_frozen():
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(borrowoc.RunReport) == RUN_REPORT_FIELDS
    assert names(borrowoc.ReplicateRecord) == REPLICATE_COLUMNS
    report = borrowoc.run_grid(
        borrowoc.ScenarioOneArm(n=25, sigma=1.0, theta0=0.0, alpha=0.025,
                                nE=20, theta1=0.5),
        (0.0, 0.5), borrowoc.BorrowingMethod.none())
    for name in REPLICATE_COLUMNS:
        assert len(getattr(report.records, name)) == 2, name
    assert report.records[1].dE_mean == 0.5


def test_cli_subcommands_and_flags_are_frozen():
    assert cli.SUBCOMMANDS == SUBCOMMANDS
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == SUBCOMMANDS
    for name, sp in sub.choices.items():
        flags = sorted(o for a in sp._actions for o in a.option_strings)
        assert flags == FLAGS, name
