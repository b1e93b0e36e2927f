"""Golden corpus for the `flexdog` command line: one pinned digest per case of
the ``cli`` corpus, which ``golden_cases`` builds and describes.  The option
strings of every subcommand are pinned as well.  A change that moves any of
these changes what the CLI does, and has to say so.
"""

import argparse

import pytest

from flexdog.cli import build_parser
from golden_cases import cases, digest, outputs

GOLDEN = {
    "run-constant-defaults": "c85b489b87bf9924c14c5c9021fb630d01d52c3bb657291ea0724fd643f870fa",
    "run-constant-variation": "76a0033280d439586bb48f6c2594fa2ae50cbc6940bb280fe2e00487e2e5bd82",
    "run-constant-bypass": "16d83427b05bfd8b6c634ce618ea3f320d409d15998226f6483e2806286ba9ca",
    "run-constant-sigmoid": "df9381b921e123dca38a47bc195d97f7c93589ad2b26d0af7d29004fe00f16c9",
    "run-constant-grayscale": "508055109df01aaf71d0c555abbacdac5cd889353c2ca619cefd071ca0126679",
    "run-step-defaults": "40f252ee111c190841950756415dd7f6daa765a1e8126b063a2f1ff3117bba8d",
    "run-step-variation": "60f3df227c7645b850c6fa3fcbb0ed2cd1262c1f85a0959754c6e13ccda43f6c",
    "run-step-bypass": "cb9be563fd99dbf03d756889c1ee05b35972c266af1dfdda971ae78b2a0379b5",
    "run-step-sigmoid": "6810d6605d5113fe3f0322ec4cfa15bce1aa934538235cf7f93a714d91bcd543",
    "run-step-grayscale": "d10672e2f20e033f527eb3f7218983b68cb36c718261b2bb05564b080acdd943",
    "run-checkerboard-defaults": "e8a4756dae73c11e9452dbf2fb259812e516e50d34e4179b3c04b280ada19a3b",
    "run-checkerboard-variation": "aeeeeb503844392f409be3bee383af81069318d191ca1baaa615b73bf245e83d",
    "run-checkerboard-bypass": "172301938494a2563cf315df723ce3a7c19ba1f730e26d924931fa106e572622",
    "run-checkerboard-sigmoid": "b4217959bc56b8bb1c6dd041b3b4e1f37ec3eb4b57b49fabec134d2fd61b5a66",
    "run-checkerboard-grayscale": "4d2c9a623c5573cac5cd01011a26916a6aeb46fd02071b75cb7af601290ef9c6",
    "run-dot-defaults": "d00d3f65d9e582f9998cbf212e9bae789c1d29f9ad2f30aec35f8817f814ede8",
    "run-dot-variation": "6d53147b396a68fa260b479b34383489f5c1119a8d7101415f03b874c010a77d",
    "run-dot-bypass": "da1a945a6ea9988420275c611985924a565d86ea63c6387042130c280182dd83",
    "run-dot-sigmoid": "7058a8cb197e615724321bdec048f5ca9449738a324de73be414436d29840de8",
    "run-dot-grayscale": "9ff3a5b661006e3b7eebe36eebf0eb8c3fdc5f87d567c26c21f89e1666e72397",
    "montecarlo": "771dd30a3e42cb983b2eea40c0704c3e0959eb226da9337bb6ecbfc8610afa50",
    "deviation": "aaa2ec59548a10b3d950dd94cc80a5ed156299da2406992765448f416bc457d9",
    "perf-paper": "b8e67891a788cd6f35b44025fd73f94e50640c01d6364070bbf50a2c185c37a1",
    "perf-accounting": "fd1ce82aad6a95a98f7ee9514e14aff83af856178d7490f2ba8ec944e865d5eb",
}

COMMON_OPTIONS = [
    "-h", "--help", "--config", "--input", "--index", "--threshold", "--no-binarize",
    "--sigma1", "--sigma-ratio", "--half-width", "--gamma", "--i-in", "--model",
    "--steepness", "--half-separation", "--calibrate", "--variation-gamma",
    "--variation-gain", "--variation-sensor", "--distribution", "--bits", "--vref",
    "--adc-bypass", "--transimpedance", "--settle-time", "--supply", "--parallelism",
    "--pixel-mode", "--adc-separate", "--seed", "--out-dir",
]
OPTIONS = {
    "run": COMMON_OPTIONS,
    "montecarlo": COMMON_OPTIONS + ["--trials", "--levels", "--sweep-param"],
    "deviation": COMMON_OPTIONS + ["--sweep-lo", "--sweep-hi", "--points", "--reference"],
    "perf": COMMON_OPTIONS[:2] + ["width", "height"] + COMMON_OPTIONS[2:],
}


@pytest.mark.parametrize("case", cases("cli"))
def test_cli_case_matches_golden(case):
    assert digest(outputs("cli", case)) == GOLDEN[case]


def test_option_strings_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [s for action in p._actions for s in (action.option_strings or [action.dest])]
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS
