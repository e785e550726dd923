import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cimlab.cli import BATTERY, FAMILY_OPTIONS, build_parser, parse_group_spec, parse_map_spec, run
from cimlab.groups import is_isomorphic, make_abelian, make_cyclic, make_generalized_quaternion
from cimlab.reports import TOOL_VERSION, CiReport, validate_bundle_dict


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    data = json.loads(out)
    validate_bundle_dict(data)
    return rc, data


# ----------------------------------------------------------------- parsing

def test_parse_cyclic():
    g = parse_group_spec("cyclic:8")
    assert g.order == 8 and g.name == "Z8"


def test_parse_abelian():
    g = parse_group_spec("abelian:2,2,2")
    assert g.order == 8
    assert is_isomorphic(g, make_abelian([2, 2, 2])) is not None


def test_parse_quaternion():
    g = parse_group_spec("quaternion:16")
    assert is_isomorphic(g, make_generalized_quaternion(16)) is not None


def test_parse_product():
    g = parse_group_spec("product:cyclic:3,quaternion:8")
    assert g.order == 24


def test_parse_semidirect():
    g = parse_group_spec("semidirect:cyclic:7,3,mult:2")
    assert g.order == 21


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_group_spec("dihedral:8")


def test_parse_order_cap(monkeypatch):
    monkeypatch.setenv("CIMLAB_CAP_ORDER", "10")
    from cimlab.errors import CimlabError

    with pytest.raises(CimlabError):
        parse_group_spec("cyclic:16")
    monkeypatch.setenv("CIMLAB_CAP_ORDER", "64")
    assert parse_group_spec("cyclic:16").order == 16


def test_parse_map_shorthand():
    m = parse_map_spec("z8:1,3,5,7")
    assert m.group.order == 8 and m.rotation == (1, 3, 5, 7)


def test_parse_map_general_group():
    m = parse_map_spec("quaternion:8/1,4,3,6")
    assert m.group.order == 8


def test_parse_map_json_file(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"group": "cyclic:8", "rotation": [1, 3, 5, 7]}))
    m = parse_map_spec(f"@{path}")
    assert m.rotation == (1, 3, 5, 7)


@pytest.mark.parametrize("payload, message", [
    ({"group": "cyclic:8"}, "no 'rotation' key"),
    ({"group": {"table": [[0]]}, "rotation": []}, "no 'order' key"),
    ([1, 2], "must hold a JSON object, not list"),
], ids=["no-rotation", "no-order", "not-an-object"])
def test_malformed_map_file_is_a_usage_error(tmp_path, capsys, payload, message):
    # exit 1 means a false verdict, so a bad file must exit 2 with an error line
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    assert run(["aut-map", "--map", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_ragged_inline_table_is_a_usage_error(tmp_path, capsys):
    # a short row once crashed the inverse search: a traceback and exit 1
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"group": {"order": 2, "table": [[0, 1], [1]]},
                                "rotation": [1]}))
    assert run(["aut-map", "--map", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table shape mismatch\n"


# ------------------------------------------------------------- subcommands

def test_aut_map_unit(capsys):
    rc, data = run_json(capsys, ["aut-map", "--map", "z8:1,3,5,7"])
    assert rc == 0
    report = data["reports"][0]
    assert report["stats"]["order"] == 32
    assert report["notes"]["antibalanced"] is True


def test_is_ci_map_exit_codes(capsys):
    rc, data = run_json(capsys, ["is-ci-map", "--map", "z9:1,5,7,8,4,2"])
    assert rc == 1
    assert data["reports"][0]["verdict"] is False

    rc, data = run_json(capsys, ["is-ci-map", "--map", "z8:1,3,5,7"])
    assert rc == 0

    rc, data = run_json(
        capsys, ["is-ci-map", "--map", "z8:1,3,5,7", "--method", "definitional"]
    )
    assert rc == 0


def test_iso_maps(capsys):
    rc, data = run_json(
        capsys,
        ["iso-maps", "--map1", "abelian:2,2/1,2", "--map2", "z4:1,3"],
    )
    assert rc == 0
    report = data["reports"][0]
    assert report["verdict"] is True
    assert report["notes"]["cayley_isomorphic"] is False


def test_verify_cim_cli(capsys):
    rc, data = run_json(
        capsys, ["verify-cim", "--group", "cyclic:8", "--max-valency", "7"]
    )
    assert rc == 0
    assert data["reports"][0]["verdict"] is True


def test_cross_validate_cli(capsys):
    rc, data = run_json(capsys, ["cross-validate", "--group", "abelian:2,2"])
    assert rc == 0


# sha256 of the canonical JSON each command prints, and its exit code;
# any change to these bytes is a change to the regression oracle
GOLDEN = [
    (["cross-validate", "--group", "cyclic:8"], 0,
     "e54a9023f199c3dfe4313bee145a51136518484bb5ab6f019d3aa90645f1e5e9"),
    (["cross-validate", "--group", "abelian:2,4"], 0,
     "65fcecbc70d82f223b15c4321604ac816dad68129f6ac20703c9e00d3877b92e"),
    (["cross-validate", "--group", "abelian:2,2,2"], 0,
     "1c71509e54bdfca4ef161a55a46e9c1acab3bc4b6736323088bb807dbfd9aac8"),
    (["cross-validate", "--group", "quaternion:8"], 0,
     "eb7f81df71225b0d7a7a03d904eabd85f40fa5472ed7bf8765aa8e7de53a6cfb"),
    (["cross-validate", "--group", "semidirect:cyclic:4,2,neg"], 0,
     "3f366c412a87fe85a59de2b15ac069b3bf897c1c2ccda947100809accd2569cd"),
    (["is-ci-map", "--method", "definitional", "--map", "z9:1,5,7,8,4,2"], 1,
     "de5a95828cb3f95818b8df5e503cfc0a598f909a25a40722fd82316b91b96894"),
    # disconnected maps, compared through their identity components
    (["is-ci-map", "--method", "definitional", "--map", "z8:2,6"], 0,
     "ad94b43d9367e04e4cde7c6d2347554af498c2e8476c0d84003f7951298ebd5f"),
    (["is-ci-map", "--method", "definitional", "--map", "z10:2,4,6,8"], 0,
     "5bb47d7aa9c1dcbc0bf856b29425cb1c6e6aeb3b0f6a4c4346dcdda9ee49e6e2"),
    (["is-ci-map", "--method", "definitional", "--map", "abelian:2,4/2,6"], 1,
     "ef14d23a81976e4fbfd0153ca0b6d3e372ab341e615a8f8d28d56dc79fab06a3"),
    # the disconnected reduction, over several connection subgroups each
    (["verify-cim", "--group", "cyclic:18", "--max-valency", "4"], 0,
     "15af5afb49277a8375699c6c561ef079bdc64c7b0ae8b282868dbd9b692605d1"),
    (["verify-cim", "--group", "cyclic:16", "--max-valency", "5"], 0,
     "1565c2597a815c0a63135781b4ab59580c8a651220277a62158d0762f9fc3c9c"),
    (["verify-cim", "--group", "cyclic:8", "--max-valency", "7"], 0,
     "1a562e2ba4b828b0fe7f79ed35a6515fcfab3b44425177bb6c1e010db4cd8909"),
    # the connected and the disconnected sweep each through a pool of two
    # workers; the worker count goes last, as a unique id
    (["verify-cim", "--max-valency", "5", "--group", "cyclic:16", "--workers", "2"], 0,
     "1565c2597a815c0a63135781b4ab59580c8a651220277a62158d0762f9fc3c9c"),
    # witnesses over make_abelian tables and rival tables
    (["counterexample", "--family", "odd-square", "--p", "3", "--kind", "elementary"], 1,
     "3f1735071c95765c1e65a881216cd91d8f669c91f0d0dc94498d114e5d30d6d2"),
    (["counterexample", "--family", "frobenius"], 1,
     "905a7a83ac28cd6b11dd4854d0409a7dc7effcd1729614b102b9f8850751f8c6"),
    # sweeps through a real pool of two workers; the group goes last, as the id
    (["verify-cim", "--max-valency", "8", "--workers", "2", "--group", "cyclic:9"], 1,
     "dd578e9cbd47e50312469b9cbad6d33e80aa137a08169d05ec02eadfb0300f04"),
    (["verify-connected-cim", "--max-valency", "8", "--strategy", "exhaustive",
      "--workers", "2", "--group", "cyclic:11"], 0,
     "6ac08eb1a10961f3854c78111b2fab0f669d041a2e4390cbecda11c8b56c7cad"),
    (["verify-connected-cim", "--max-valency", "8", "--strategy", "exhaustive",
      "--workers", "2", "--group", "abelian:3,3"], 1,
     "41a2de76b6a85ff3aa4ac5f07effecb1cf16fbb667cb510b5a12cc11f16d4cdb"),
    (["verify-connected-cim", "--max-valency", "8", "--strategy", "stabilizer",
      "--workers", "2", "--group", "cyclic:16"], 1,
     "6316945b69d251692866e25ea4835607dc51f87a8973bbe00e22a62e2fa79e84"),
    # the other counterexample families, a map's automorphism group and a
    # map pair; the n = 4 argv ends in its family, as 4 is already an id
    (["counterexample", "--family", "odd-square", "--p", "3", "--kind", "cyclic"], 1,
     "a9f1238c1d98e857a9a62f985afab18ac1c5fc9c3c4126d0baa15d9487b01e87"),
    (["counterexample", "--n", "4", "--family", "cyclic-2power"], 1,
     "540fdcabfc1aa9fffa8fbf28611e6b23bedc32f6209c3339ac8363314facbdc6"),
    (["counterexample", "--family", "q16"], 1,
     "238cfd2223953c4987049dd68972f9572cc30b87a5e2e3ee8366d69e4b7714e5"),
    (["aut-map", "--map", "z8:1,3,5,7"], 0,
     "be8972303f196e0693ba0f2a5a2e0b21a2520124e05cfcc834dc9de66b43f840"),
    (["iso-maps", "--map1", "abelian:2,2/1,2", "--map2", "z4:1,3"], 0,
     "3a5c24af2509d8dbe0265beb12c1eecd7f047b09bdeadccdfef4d892aaee42a2"),
]


# pytest would suffix a repeated id, silently renaming the test that had it
GOLDEN_IDS = [argv[-1] for argv, _, _ in GOLDEN]
assert len(set(GOLDEN_IDS)) == len(GOLDEN_IDS), "each GOLDEN argv must end in its own value"


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=GOLDEN_IDS)
def test_canonical_json_matches_golden_digest(capsys, argv, code, digest):
    assert run(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


BATTERY_NOTES = ("battery_key", "expected_verdict", "matches_expected")


@pytest.fixture(scope="module")
def battery_entries():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["reproduce-paper"]) == 0
    return {r["notes"].get("battery_key"): r for r in json.loads(out.getvalue())["reports"]}


@pytest.mark.parametrize("key, command, options",
                         [(key, command, options) for key, _, command, options in BATTERY
                          if command is not None],
                         ids=[key for key, _, command, _ in BATTERY if command is not None])
def test_battery_entry_is_its_subcommands_report(capsys, battery_entries, key, command, options):
    argv = [command]
    for name, value in options.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    entry = battery_entries[key]
    assert run(argv) == (0 if entry["verdict"] else 1)
    standalone = json.loads(capsys.readouterr().out)["reports"]
    notes = {k: v for k, v in entry["notes"].items() if k not in BATTERY_NOTES}
    assert [{**entry, "notes": notes}] == standalone


def test_battery_and_family_tables_name_the_parsers_options():
    subs = build_parser()._subparsers._group_actions[0].choices
    dests = {name: {a.dest for a in p._actions} - {"help", "out", "timings"}
             for name, p in subs.items()}
    assert dests["counterexample"] == {"family"}.union(*FAMILY_OPTIONS.values())
    for key, _, command, options in BATTERY:
        if command is None:
            continue
        assert command in subs, key
        assert set(options) <= dests[command], key
        if command == "counterexample":
            assert set(options) == {"family", *FAMILY_OPTIONS[options["family"]]}, key


def test_counterexample_families(capsys):
    for argv in (
        ["counterexample", "--family", "odd-square", "--p", "3"],
        ["counterexample", "--family", "odd-square", "--p", "3", "--kind", "elementary"],
        ["counterexample", "--family", "cyclic-2power", "--n", "4"],
        ["counterexample", "--family", "q16"],
        ["counterexample", "--family", "frobenius"],
    ):
        rc, data = run_json(capsys, argv)
        assert rc == 1  # exhibits a failure of the CI property
        assert data["reports"][0]["verdict"] is False


def test_error_exit_code(capsys):
    rc = run(["is-ci-map", "--map", "z8:1,2,3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["is-ci-map", "--map", "z8:-1,1,7,-7"],
    ["is-ci-map", "--map", "z8:9"],
    ["aut-map", "--map", "z8:1,7,12"],
    ["is-ci-map", "--map", "abelian:2,4/9,3"],
], ids=["negative", "past-order", "one-entry-past-order", "abelian"])
def test_rotation_entries_outside_the_group_are_usage_errors(capsys, argv):
    # exit 1 would read as a false verdict and exit 0 as a true one
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "outside 1..7" in captured.err


def test_map_file_entries_outside_the_group_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"group": "cyclic:8", "rotation": [1, 15]}))
    assert run(["is-ci-map", "--map", f"@{path}"]) == 2
    assert "outside 1..7" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["z16:2,4,12,14", "z12:2,4,8,10"])
def test_definitional_oracle_past_the_old_brute_force_cap(capsys, spec):
    # two copies of a connected map over Z8 and three over Z4; the verdict
    # is the component's
    from cimlab.ci import babai_is_ci_map
    from cimlab.maps import identity_component

    rc, data = run_json(capsys, ["is-ci-map", "--method", "definitional", "--map", spec])
    component, _ = identity_component(parse_map_spec(spec))
    assert rc == 0
    assert data["reports"][0]["verdict"] is babai_is_ci_map(component).verdict is True


def test_disconnected_witness_past_the_old_cap_reverifies(capsys):
    from cimlab.ci import revalidate_map_report

    rc, data = run_json(capsys, ["is-ci-map", "--method", "definitional",
                                 "--map", "abelian:4,4/1,3"])
    assert rc == 1
    report = data["reports"][0]
    assert report["witnesses"] == [{"kind": "isomorphic-non-cayley-isomorphic-map",
                                    "map": [1, 3], "other": [2, 8]}]
    h = parse_group_spec("abelian:4,4")
    revalidate_map_report(report, h)
    # equal valency, but connection subgroups of orders 4 and 8
    report["witnesses"] = [{"kind": "isomorphic-non-cayley-isomorphic-map",
                            "map": [1, 2, 3], "other": [1, 8, 3]}]
    with pytest.raises(ValueError, match="not isomorphic"):
        revalidate_map_report(report, h)


@pytest.mark.parametrize("command", ["aut-map", "is-ci-map"])
def test_workers_is_rejected_where_no_maps_are_swept(capsys, command):
    assert run([command, "--map", "z8:1,3,5,7", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run(["aut-map", "--map", "z8:1,3,5,7", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert out.read_text() == stdout
    validate_bundle_dict(json.loads(out.read_text()))


def test_timings_flag_only_changes_timing_fields(capsys):
    rc1 = run(["aut-map", "--map", "z8:1,3,5,7"])
    plain = capsys.readouterr().out
    rc2 = run(["aut-map", "--map", "z8:1,3,5,7", "--timings"])
    timed = capsys.readouterr().out
    data_plain = json.loads(plain)
    data_timed = json.loads(timed)
    data_timed.pop("elapsed_seconds", None)
    for r in data_timed["reports"]:
        r.pop("elapsed_seconds", None)
    assert data_plain == data_timed
    _, data = run_json(capsys, ["is-ci-map", "--map", "z8:1,3,5,7", "--timings"])
    assert "elapsed_seconds" in data["reports"][0]


def test_parser_covers_all_subcommands():
    parser = build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert set(subs) == {
        "aut-map", "iso-maps", "is-ci-map", "verify-cim",
        "verify-connected-cim", "cross-validate", "counterexample",
        "reproduce-paper",
    }


def test_report_witnesses_reverify_on_reload(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run(["is-ci-map", "--map", "z9:1,5,7,8,4,2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 1
    from cimlab.ci import revalidate_map_report

    data = json.loads(out.read_text())
    report = data["reports"][0]
    revalidate_map_report(report, make_cyclic(9))

    out2 = tmp_path / "true.json"
    rc = run(["is-ci-map", "--map", "z8:1,3,5,7", "--out", str(out2)])
    capsys.readouterr()
    assert rc == 0
    data = json.loads(out2.read_text())
    revalidate_map_report(data["reports"][0], make_cyclic(8))

    # a corrupted witness must be rejected
    bad = json.loads(out.read_text())["reports"][0]
    for w in bad["witnesses"]:
        if w["kind"] == "isomorphic-non-cayley-isomorphic-map":
            w["other"] = w["map"]
    with pytest.raises(ValueError):
        revalidate_map_report(bad, make_cyclic(9))


def test_revalidation_rejects_a_rival_outside_aut(capsys):
    # the left-regular Q8 is regular, but neither inside Aut(M) nor a copy of Z8
    from cimlab.ci import revalidate_map_report
    from cimlab.perms import left_regular_representation

    rc, data = run_json(capsys, ["is-ci-map", "--map", "z8:1,3,5,7"])
    assert rc == 0
    report = data["reports"][0]
    q8 = left_regular_representation(make_generalized_quaternion(8))
    report["witnesses"].append({"kind": "non-conjugate-regular-subgroup",
                                "generators": [list(p) for p in q8.generators],
                                "order": q8.order})
    with pytest.raises(ValueError, match="Aut\\(M\\)"):
        revalidate_map_report(report, make_cyclic(8))


def test_revalidation_rejects_a_conjugator_outside_aut(capsys):
    # x conjugates x^-1 Hhat x onto Hhat, but neither lies in Aut(M)
    from cimlab.ci import revalidate_map_report
    from cimlab.perms import conjugate_subgroup, inverse_perm, left_regular_representation

    rc, data = run_json(capsys, ["is-ci-map", "--map", "z8:1,3,5,7"])
    assert rc == 0
    report = data["reports"][0]
    x = (0, 2, 1, 3, 4, 5, 6, 7)
    sub = conjugate_subgroup(left_regular_representation(make_cyclic(8)), inverse_perm(x))
    report["witnesses"].append({"kind": "conjugator", "element": list(x),
                                "subgroup": [list(p) for p in sub.generators]})
    with pytest.raises(ValueError, match="Aut\\(M\\)"):
        revalidate_map_report(report, make_cyclic(8))


def test_revalidation_rejects_a_conjugator_on_a_disconnected_map():
    from cimlab.ci import revalidate_map_report
    from cimlab.perms import left_regular_representation

    z8 = make_cyclic(8)
    hhat = left_regular_representation(z8)
    report = {
        "subject": {"kind": "map", "group": "Z8", "order": 8, "rotation": [2, 6]},
        "witnesses": [{"kind": "conjugator", "element": list(range(8)),
                       "subgroup": [list(p) for p in hhat.generators]}],
    }
    with pytest.raises(ValueError, match="not connected"):
        revalidate_map_report(report, z8)


def test_parse_map_inline_table(tmp_path):
    from cimlab.groups import group_to_json

    m = parse_map_spec("quaternion:8/1,4,3,6")
    payload = {"group": group_to_json(m.group), "rotation": list(m.rotation)}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    back = parse_map_spec(f"@{path}")
    assert back.rotation == m.rotation
    assert back.group.table == m.group.table


_Z65 = [[(a + b) % 65 for b in range(65)] for a in range(65)]


@pytest.mark.parametrize("order, table", [
    (65, _Z65),  # a valid group
    (65, [[0] * 65 for _ in range(65)]),  # not a group; the cap must fire first
    (65, [[0]]),  # the declared order alone
    (1, _Z65),  # the number of rows alone
], ids=["valid-group", "not-a-group", "declared-order", "row-count"])
def test_inline_table_respects_order_cap(tmp_path, capsys, order, table):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"group": {"name": "Z65", "order": order, "table": table},
                                "rotation": [1, 64]}))
    assert run(["aut-map", "--map", f"@{path}"]) == 2
    assert "exceeds cap 64" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    import cimlab.cli

    def fail(*args, **kwargs):
        raise RuntimeError("left-regular copy missing from regular subgroup search")

    monkeypatch.setattr(cimlab.cli, "verify_connected_cim", fail)
    rc = run(["verify-connected-cim", "--group", "cyclic:5", "--max-valency", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: left-regular copy missing from regular subgroup search\n")


def test_bundle_that_fails_its_own_check_is_an_internal_error(monkeypatch, capsys):
    # exit 1 would read as a false verdict
    import cimlab.cli

    monkeypatch.setattr(cimlab.cli, "verify_connected_cim", lambda *args, **kwargs: CiReport(
        subject={}, verdict=True, method="exhaustive", stats=[]))
    rc = run(["verify-connected-cim", "--group", "cyclic:5", "--max-valency", "4"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def _with_report(bundle, **fields):
    return {**bundle, "reports": [{**bundle["reports"][0], **fields}]}


# edits of a real bundle (`is-ci-map --map z8:1,3,5,7`, one report with a
# witness) that validate_bundle_dict must reject
REJECTED_EDITS = {
    "missing-key": lambda b: {k: v for k, v in b.items() if k != "command"},
    "extra-key": lambda b: {**b, "elapsed": 0.1},
    "report-missing-key": lambda b: {**b, "reports": [
        {k: v for k, v in b["reports"][0].items() if k != "notes"}]},
    "report-extra-key": lambda b: _with_report(b, seconds=0.1),
    "verdict-int": lambda b: _with_report(b, verdict=1),
    "elapsed-true": lambda b: {**b, "elapsed_seconds": True},
    "report-elapsed-string": lambda b: _with_report(b, elapsed_seconds="0.1"),
    "reports-dict": lambda b: {**b, "reports": {"0": b["reports"][0]}},
    "reports-tuple": lambda b: {**b, "reports": tuple(b["reports"])},
    "witness-list": lambda b: _with_report(b, witnesses=[list(b["reports"][0]["witnesses"][0])]),
    "subject-string": lambda b: _with_report(b, subject="z8:1,3,5,7"),
    "not-a-dict": lambda b: list(b.items()),
}


def real_bundle(capsys, *flags):
    assert run(["is-ci-map", "--map", "z8:1,3,5,7", *flags]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["reports"][0]["witnesses"]
    return bundle


@pytest.mark.parametrize("flags", [[], ["--timings"]], ids=["plain", "timings"])
def test_validate_bundle_accepts_real_bundles(capsys, flags):
    bundle = real_bundle(capsys, *flags)
    assert ("elapsed_seconds" in bundle) is bool(flags)
    validate_bundle_dict(bundle)


@pytest.mark.parametrize("edit", REJECTED_EDITS.values(), ids=REJECTED_EDITS.keys())
def test_validate_bundle_rejects_malformed_bundles(capsys, edit):
    with pytest.raises(RuntimeError):
        validate_bundle_dict(edit(real_bundle(capsys)))


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_takes_the_version_from_reports():
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(path, "rb") as fh:
        data = tomllib.load(fh)
    assert "version" not in data["project"]
    assert data["project"]["dynamic"] == ["version"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "cimlab.reports.TOOL_VERSION"}
    try:
        from setuptools.config.pyprojecttoml import read_configuration
    except ImportError:
        return
    assert read_configuration(path, expand=True)["project"]["version"] == TOOL_VERSION


def test_import_needs_only_the_standard_library():
    # -S leaves site-packages off the path, so any third-party import fails
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", "import cimlab.cli"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, bound", [("verify-connected-cim", "-3"), ("verify-cim", "0")])
def test_valency_bound_below_one_is_a_usage_error(capsys, command, bound):
    rc = run([command, "--group", "cyclic:5", "--max-valency", bound])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "max_valency must be at least 1" in captured.err
