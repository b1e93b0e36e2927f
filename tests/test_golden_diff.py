"""``golden_diff`` on in-process records: the child runs of the full corpus
are left to the command line."""

from types import SimpleNamespace

import numpy as np

import golden_diff
from golden_cases import outputs

CASES = [("pipeline", "checkerboard-ideal-shared-adc-truncnorm-P1"), ("cli", "perf-paper")]


def diff_table(monkeypatch, capsys, *srcs):
    """golden_diff's table over CASES; the tree named "moved" has the
    oracle's largest value one ulp higher."""
    def records(child):
        for corpus, case in CASES:
            out = outputs(corpus, case)
            if child.args[-1].endswith("moved") and corpus == "pipeline":
                at = np.unravel_index(np.argmax(out["oracle"]), out["oracle"].shape)
                out["oracle"][at] = np.nextafter(out["oracle"][at], np.inf)
            yield f"{corpus}/{case}", out

    monkeypatch.setattr(golden_diff, "run",
                        lambda src: SimpleNamespace(args=[src], kill=lambda: None))
    monkeypatch.setattr(golden_diff, "records", records)
    golden_diff.main(list(srcs))
    return capsys.readouterr().out


def test_one_tree_is_equal_everywhere(monkeypatch, capsys):
    table = diff_table(monkeypatch, capsys, "same")
    assert table.startswith("2 of 2 cases equal, 0 moved.") and "|" not in table


def test_one_ulp_names_that_case_and_field_only(monkeypatch, capsys):
    table = diff_table(monkeypatch, capsys, "same", "moved")
    assert table.startswith("1 of 2 cases equal, 1 moved.")
    peak = outputs(*CASES[0])["oracle"].max()
    ulp = np.spacing(peak)
    figures = f"{ulp:.2g} | {ulp / (peak + ulp):.2g}"
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert rows == [f"| `pipeline` | `oracle` | {figures} | 1 | no |",
                    f"| `pipeline/{CASES[0][1]}` | `oracle` | {figures} | 1 of 676 | no |"]
