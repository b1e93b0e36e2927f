"""Golden corpus for the `flexdog` command line.

Each case runs ``flexdog.cli.main`` and pins one SHA-256 digest over its exit
code, its stdout (with the output directory replaced by ``<out>``) and every
artifact it writes.  JSON artifacts are hashed without the fields that differ
between identical runs: ``timestamp``, ``artifacts`` and ``config.out_dir``.
The option strings of every subcommand are pinned as well.  A change that
moves any of these changes what the CLI does, and has to say so.
"""

import argparse
import hashlib
import json

import pytest

from flexdog.cli import build_parser, main

PATTERNS = ("constant", "step", "checkerboard", "dot")
RUN_VARIANTS = {
    "defaults": (),
    "variation": ("--variation-gamma", "0.05", "--variation-gain", "0.05",
                  "--variation-sensor", "0.05", "--seed", "7"),
    "bypass": ("--adc-bypass",),
    "sigmoid": ("--model", "sigmoid-product", "--half-width", "2"),
    "grayscale": ("--no-binarize", "--bits", "4"),
}
CASES = {
    f"run-{pattern}-{variant}": ("run", "--input", f"pattern:{pattern}", *args)
    for pattern in PATTERNS
    for variant, args in RUN_VARIANTS.items()
}
CASES.update({
    "montecarlo": ("montecarlo", "--input", "pattern:checkerboard", "--trials", "4",
                   "--levels", "0.0,0.05", "--sweep-param", "gain", "--seed", "3"),
    "deviation": ("deviation", "--model", "sigmoid-product", "--points", "41"),
    "perf-paper": ("perf", "28", "28"),
    "perf-accounting": ("perf", "640", "480", "--half-width", "2", "--parallelism", "4",
                        "--pixel-mode", "valid-only", "--adc-separate", "--supply", "5"),
})

GOLDEN = {
    "run-constant-defaults": "eaeb4a885948b7ac1b62e32dacdec73599a43428ba6e3d36abe09147df476bbc",
    "run-constant-variation": "7225b3fc67850790e7cc78267312919f0252ae7482e7383141fc9ec8c0d8370f",
    "run-constant-bypass": "e478e77eedf1eb26859114afe1c33dacd08183ab358ee1e3b0233c7fa382073c",
    "run-constant-sigmoid": "40cac908045e2f3fac087bbe1392705028dd220d0e59b8de63d95253fdc5b9dc",
    "run-constant-grayscale": "ec6d253cc7239712896a61cdab2b28e00fb8e45609fd5af935c11ebfbf20285e",
    "run-step-defaults": "643ae90d28c51df7ebc0020a09c393b458879dc775a28c89f8e51396a6554535",
    "run-step-variation": "ae25085a03bd1cf4ca52fc2527a024b14742f50d3877fca68671c9bf6d8d0e87",
    "run-step-bypass": "8760f5134cb91707e6180ffd2d15a8a3d577e0194f6f7a4b355025fc6f6e2008",
    "run-step-sigmoid": "2fe01b0c00656ceea74e9db1e489c8a34bb16d80fca657eea82b66be794a6c8a",
    "run-step-grayscale": "8446789b72f4fb13b8930520be5446baad76b625fac3cd95a91d2b4828d31908",
    "run-checkerboard-defaults": "08b37606ce4a6caec7a81ff76bc13a484721a4551b52b1b3a3c6a2f05b818dae",
    "run-checkerboard-variation": "33c57cff5d22d0a82c5c92d3da7b2af8e495def8552c3bf4979bd9ba58fee5b3",
    "run-checkerboard-bypass": "7a946d85ee0f58982276e52bd04abcb97a5f548645eab4a930e692fafdd7c53e",
    "run-checkerboard-sigmoid": "0e84e4ff07fbfe568406f0bb83212507f355cb59f737f369d1108bdda0fe8d92",
    "run-checkerboard-grayscale": "5360f0d1220551db9761eddfe428869060169ca00f19db30c4bae46e09720435",
    "run-dot-defaults": "d00d3f65d9e582f9998cbf212e9bae789c1d29f9ad2f30aec35f8817f814ede8",
    "run-dot-variation": "6d53147b396a68fa260b479b34383489f5c1119a8d7101415f03b874c010a77d",
    "run-dot-bypass": "da1a945a6ea9988420275c611985924a565d86ea63c6387042130c280182dd83",
    "run-dot-sigmoid": "7058a8cb197e615724321bdec048f5ca9449738a324de73be414436d29840de8",
    "run-dot-grayscale": "9ff3a5b661006e3b7eebe36eebf0eb8c3fdc5f87d567c26c21f89e1666e72397",
    "montecarlo": "994c4dccd361230ea9e60419315db29bd52222f9e02ba101a197b14b69c279e4",
    "deviation": "31f18123002bcc7406bc7a50b4be1021fb53f54e1077b47ba7a790514b3835fa",
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


def _artifact_bytes(path):
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    doc = json.loads(data)
    doc.pop("timestamp")
    doc.pop("artifacts", None)
    doc["config"].pop("out_dir")
    return json.dumps(doc, sort_keys=True).encode()


def case_digest(argv, out, capsys):
    """SHA-256 over exit code, normalised stdout and every artifact in ``out``."""
    code = main([*argv, "--out-dir", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    h.update(stdout.encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(f"\n{path.relative_to(out)}\n".encode())
        h.update(_artifact_bytes(path))
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_case_matches_golden(case, tmp_path, capsys):
    assert case_digest(CASES[case], tmp_path / "out", capsys) == GOLDEN[case]


def test_option_strings_are_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [s for action in p._actions for s in (action.option_strings or [action.dest])]
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS
