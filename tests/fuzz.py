"""Run the property tests' strategies randomized and print every failing input.

    PYTHONPATH=src python tests/fuzz.py [--examples N] [--seed S]

Tier-1 runs the command-line, pipeline and API properties over fixed, derandomized
examples.  This draws N fresh examples of each property from seed S (default:
a random seed, printed first, so a run can be repeated), with warnings turned
into errors as in tier-1.  It does not stop or shrink at a failure: each
failing input is printed with its traceback, and the exit code is 1 if any
input failed.  It is not collected by pytest.
"""

import argparse
import random
import sys
import tempfile
import traceback
import warnings

from hypothesis import HealthCheck, Phase, given, seed, settings, strategies as st

import test_api_properties as api_properties
import test_cli_properties as cli_properties
import test_pipeline_properties as pipeline_properties

PROPERTIES = [  # name, test, its strategies, whether it takes an output directory
    ("cli", cli_properties.test_every_command_line_exits_0_or_2,
     (cli_properties.command_line(),), True),
    ("run_dog_pipeline",
     pipeline_properties.test_run_raises_a_configuration_error_or_returns_finite_codes,
     (pipeline_properties.pipeline_case(),), False),
    ("monte_carlo",
     pipeline_properties.test_monte_carlo_raises_a_configuration_error_or_returns_finite_rates,
     (pipeline_properties.pipeline_case(), st.integers(2, 3)), False),
    ("api", api_properties.test_every_exported_name_returns_finite_values_or_raises_a_typed_error,
     (api_properties.api_calls(),), False),
]


def fuzz(name, test, strategies, fixtures, examples, seed_value):
    """Run ``test``'s body on ``examples`` random draws; return how many failed."""
    body = test.hypothesis.inner_test
    failures = 0

    @seed(seed_value)
    @settings(max_examples=examples, database=None, deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(st.tuples(*strategies))
    def run(example):
        nonlocal failures
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                body(*fixtures, *example)
        except Exception:  # noqa: BLE001 - every failure is printed, none stops the run
            failures += 1
            print(f"{name} failed on {example!r}\n{traceback.format_exc()}", flush=True)

    run()
    print(f"{name}: {examples} examples, {failures} failed", flush=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--examples", type=int, default=200, help="examples per property")
    parser.add_argument("--seed", type=int, default=None, help="default: a random seed")
    args = parser.parse_args(argv)
    seed_value = random.randrange(2**32) if args.seed is None else args.seed
    print(f"fuzz: seed {seed_value}, {args.examples} examples per property", flush=True)
    failures = 0
    with tempfile.TemporaryDirectory() as out_dir:
        for name, test, strategies, takes_dir in PROPERTIES:
            fixtures = (out_dir,) if takes_dir else ()
            failures += fuzz(name, test, strategies, fixtures, args.examples, seed_value)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
