import json
from fractions import Fraction

import numpy as np
import pytest

from nhent import (Partition, bloch_system, build_nh_ssh_real,
                   ground_state_system, pipeline,
                   report_for_partition)
from nhent import cli, models
from nhent.cli import main
from nhent.config import ConfigError, parse_config
from fourier import momentum_transform
from test_pipeline import _dense_solves


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE = {
    "model": {"family": "nh_ssh",
              "params": {"N_cells": 6, "omega": 1.0, "upsilon": 0.4, "u": 0.3},
              "bc": "periodic"},
    "filling": "1/2",
    "policy": "real_part",
    "partitions": [{"type": "half"}],
}


# L = 13 sites do not fill 3-site cells
GUO_12, GUO_13 = ({"family": "guo_chain",
                   "params": {"L": L, "n": 3, "t": 1.0, "gamma": 0.4}}
                  for L in (12, 13))


# the partition fits each point of the size sweep, not the base chain
SIZE_SWEEP = {"model": {"family": "uniform_chain",
                        "params": {"L": 8, "t": 1.0}},
              "sweep": {"parameter": "L", "values": [64, 128]},
              "partitions": [{"type": "range", "start": 10, "stop": 20}]}


DYNAMICS = {
    "model": {"family": "measurement_chain",
              "params": {"L": 8, "t": 1.0, "Gamma": 0.4}, "bc": "open"},
}


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({**BASE, "partions": []})

    def test_unknown_model_family(self):
        doc = {**BASE, "model": {"family": "xy_chain", "params": {}}}
        with pytest.raises(ConfigError, match="family"):
            parse_config(doc)

    def test_missing_model_parameter(self):
        doc = {**BASE, "model": {"family": "nh_ssh",
                                 "params": {"N_cells": 6, "omega": 1.0}}}
        with pytest.raises(ConfigError, match="missing parameters"):
            parse_config(doc)

    def test_sweep_parameter_must_belong_to_family(self):
        doc = {**BASE, "sweep": {"parameter": "V", "values": [0.1]}}
        with pytest.raises(ConfigError, match="sweep parameter"):
            parse_config(doc)

    def test_sweep_values_deduplicated(self):
        doc = {**BASE, "sweep": {"parameter": "u", "values": [0.1, 0.1, 0.2]}}
        config = parse_config(doc)
        assert config.sweep["values"] == [0.1, 0.2]

    def test_bad_policy(self):
        with pytest.raises(ConfigError, match="policy"):
            parse_config({**BASE, "policy": "alphabetical"})

    def test_unknown_tolerance(self):
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config({**BASE, "tolerances": {"fudge": 1.0}})

    def test_partition_types(self):
        doc = {**BASE, "partitions": [
            {"type": "range", "start": 0, "stop": 4},
            {"type": "central_half"},
            {"type": "indices", "indices": [0, 2, 4]},
        ]}
        (_, _, partitions), = parse_config(doc).points
        assert [p.size for p in partitions] == [4, 6, 3]

    def test_size_scan_expands(self):
        doc = {**BASE, "partitions": [
            {"type": "size_scan", "min": 2, "max": 6, "step": 2}]}
        (_, _, partitions), = parse_config(doc).points
        assert [p.size for p in partitions] == [2, 4, 6]


class TestCommands:
    def test_model_list(self, capsys):
        assert main(["model-list"]) == 0
        out = capsys.readouterr().out
        assert "nh_ssh" in out and "hatano_nelson" in out

    def test_entanglement_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir(), out2.mkdir()
        assert main(["entanglement", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["entanglement", "--config", cfg, "--out", str(out2)]) == 0
        csv1 = (out1 / "entanglement.csv").read_bytes()
        csv2 = (out2 / "entanglement.csv").read_bytes()
        assert csv1 == csv2
        assert csv1.decode().splitlines()[0].startswith("sweep_value,partition")
        reports = json.loads((out1 / "reports.json").read_text())
        assert reports[0]["entropy_vn"]["re"] > 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["points"][0]["status"] == "ok"

    def test_momentum_partition_reports_the_momentum_view(self, tmp_path):
        # a "momentum" partition is cut from the position ground state; the
        # referee cuts the solved Fourier-transformed kernel by position
        ring = {"family": "nh_ssh", "bc": "periodic", "params": {
            "N_cells": 6, "omega": 1.0, "upsilon": 0.4, "u": 0.3}}
        cuts = [(1, 2, 3, 4, 5, 6, 7), (0, 3, 5, 8)]
        doc = {"model": ring, "filling": "1/2", "partitions": [
            {"type": "indices", "indices": list(c), "space": "momentum"}
            for c in cuts]}
        out = tmp_path / "out"
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = (out / "entanglement.csv").read_text().splitlines()[1:]
        view = ground_state_system(momentum_transform(
            build_nh_ssh_real(6, 1.0, 0.4, 0.3, "periodic")), Fraction(1, 2))
        for row, cut in zip(rows, cuts, strict=True):
            rep = report_for_partition(*view, Partition("position", cut, 12))
            s, s2 = rep.entropy_vn, rep.entropy_renyi[2]
            fields = row.split(",")
            assert fields[1:3] == [f"momentum[{cut[0]}:{cut[-1] + 1}]",
                                   str(len(cut))]
            assert [fields[i] for i in (3, 5, 7, 8)] == [
                f"{x:.12g}" for x in (s.real, s2.real, rep.entropy_modified)
            ] + [str(rep.n_midgap)]
            # Im S is rounding noise of either sign on both routes
            assert max(abs(float(fields[i])) for i in (4, 6)) < 1e-12
        assert json.loads((out / "reports.json").read_text())[0][
            "partition"]["space"] == "momentum"

    def test_momentum_half_cut_of_a_tied_ring_is_a_product(self, tmp_path):
        # the Fermi level of the 16-site ring ties k = +-pi/2; the position
        # solve fills plane waves, so the momentum half cut holds whole
        # momentum modes and S = 0 (a second, dense solve of the Fourier
        # kernel used to mix the tied pair and read 0.540465351577)
        doc = {"model": {"family": "uniform_chain",
                         "params": {"L": 16, "t": 1.0}, "bc": "periodic"},
               "filling": "1/2",
               "partitions": [{"type": "half", "space": "momentum"}]}
        out = tmp_path / "out"
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = (out / "entanglement.csv").read_text().splitlines()
        assert [row.split(",") for row in rows[1:]] == [
            ["", "momentum[0:8]", "8", "0", "0", "0", "0", "0", "0"]]
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("degenerate" in w
                   for w in manifest["points"][0]["warnings"])

    def test_one_solve_per_sweep_point(self, tmp_path, monkeypatch):
        # position and momentum partitions are cut from one ground state
        solves = []

        def spy(*args):
            solves.append(args)
            return ground_state_system(*args)
        for module in (cli, pipeline):
            monkeypatch.setattr(module, "ground_state_system", spy)
        doc = {**BASE, "partitions": [
            {"type": "half"}, {"type": "half", "space": "momentum"},
            {"type": "range", "start": 1, "stop": 8, "space": "momentum"}],
            "sweep": {"parameter": "u", "values": [0.2, 0.3]}}
        out = tmp_path / "out"
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert len(solves) == 2
        assert len((out / "entanglement.csv").read_text().splitlines()) == 7

    def test_each_sweep_point_is_assembled_once(self, tmp_path, monkeypatch):
        # parsing builds each point's open chain for its size and partitions,
        # but forms no dense kernel; each point's solve assembles its own
        assembled = []

        def counted(onsite, *args, _assemble=models._chain_entries):
            assembled.append(len(onsite))
            return _assemble(onsite, *args)
        monkeypatch.setattr(models, "_chain_entries", counted)
        doc = {"model": {"family": "hatano_nelson", "bc": "open",
                         "params": {"L": 64, "t": 1.0, "alpha": 0.2}},
               "sweep": {"parameter": "L", "values": [32, 48, 64]},
               "partitions": [{"type": "half"}]}
        parse_config(doc)
        assert assembled == []
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 0
        assert assembled == [32, 48, 64]

    def test_periodic_entanglement_takes_the_bloch_path(self, tmp_path,
                                                         monkeypatch):
        # the BASE ring is translation-invariant: ground_state_system solves
        # it by its 2 x 2 Bloch blocks, with no eig or eigh of the 12 modes
        routed = []
        monkeypatch.setattr(pipeline, "bloch_system",
                            lambda K: routed.append(K.dim)
                            or bloch_system(K))
        orders = _dense_solves(monkeypatch)
        out = tmp_path / "out"
        assert main(["entanglement", "--config", write_config(tmp_path, BASE),
                     "--out", str(out)]) == 0
        assert routed == [12]
        assert orders and set(orders) == {2}

    def test_sweep_workers_deterministic(self, tmp_path):
        doc = {**BASE, "sweep": {"parameter": "u",
                                 "values": [0.0, 0.1, 0.2, 0.3]}}
        cfg = write_config(tmp_path, doc)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        out1.mkdir(), out2.mkdir()
        assert main(["entanglement", "--config", cfg, "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["entanglement", "--config", cfg, "--out", str(out2),
                     "--workers", "2"]) == 0
        assert (out1 / "entanglement.csv").read_bytes() == \
            (out2 / "entanglement.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_keeps_its_good_points_past_a_numerical_failure(
            self, tmp_path, capsys, workers):
        # nu = w solves; at nu = 1.0 the k = 0 Bloch block is a Jordan block
        model = {"family": "eb_ssh", "bc": "periodic",
                 "params": {"L": 16, "nu": 0.5, "w": 0.5, "gamma0": 1.0}}
        doc = {"model": model, "partitions": [{"type": "half"}],
               "sweep": {"parameter": "nu", "values": [0.5, 1.0]}}
        alone = tmp_path / "alone"
        assert main(["entanglement", "--config",
                     write_config(tmp_path, {**doc, "sweep": {
                         "parameter": "nu", "values": [0.5]}}, "alone.json"),
                     "--out", str(alone)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--workers", workers]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: DefectiveError: ")
        for name in ("entanglement.csv", "reports.json"):
            assert (out / name).read_bytes() == (alone / name).read_bytes()
        points = json.loads((out / "manifest.json").read_text())["points"]
        assert [(p["value"], p["status"]) for p in points] == [
            (0.5, "ok"), (1.0, "DefectiveError")]

    def test_size_sweep_cuts_each_point_on_its_own_modes(self, tmp_path):
        doc = {"model": {"family": "uniform_chain",
                         "params": {"L": 8, "t": 1.0}},
               "partitions": [{"type": "half"}],
               "sweep": {"parameter": "L", "values": [8, 12]}}
        out = tmp_path / "out"
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = (out / "entanglement.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [
            ["8", "position[0:4]", "4"], ["12", "position[0:6]", "6"]]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_partition_out_of_range_at_a_sweep_point_exit_1(
            self, tmp_path, capsys, monkeypatch, workers):
        # sites 6..10 exist on the 12-site base chain, not at L = 8; the
        # point L = 12 before it is not solved either
        solves = []
        monkeypatch.setattr(cli, "ground_state_system",
                            lambda *args: solves.append(args))
        doc = {"model": {"family": "uniform_chain",
                         "params": {"L": 12, "t": 1.0}},
               "partitions": [{"type": "half"},
                              {"type": "range", "start": 6, "stop": 11}],
               "sweep": {"parameter": "L", "values": [12, 8]}}
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path), "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config.partitions[1]: ")
        assert solves == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_partitions_are_checked_on_each_point_not_the_base(
            self, tmp_path, workers):
        # sites 10..19 exist at L = 64 and 128, not on the 8-site base chain
        out = tmp_path / "out"
        assert main(["entanglement", "--config",
                     write_config(tmp_path, SIZE_SWEEP), "--out", str(out),
                     "--workers", workers]) == 0
        rows = (out / "entanglement.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [
            ["64", "position[10:20]", "10"], ["128", "position[10:20]", "10"]]

    def test_each_worker_payload_carries_its_own_point(self, tmp_path,
                                                       monkeypatch):
        payloads = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                payloads.extend(items)
                return map(fn, items)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        assert main(["entanglement", "--config",
                     write_config(tmp_path, SIZE_SWEEP),
                     "--out", str(tmp_path), "--workers", "2"]) == 0
        assert [[(v, spec.params["L"], [p.n_total for p in parts])
                 for v, spec, parts in config.points]
                for config in payloads] == [[(64, 64, [64])],
                                            [(128, 128, [128])]]

    def test_duality_resolves_partitions_on_the_model_it_solves(
            self, tmp_path, capsys):
        # duality does not run the sweep: it cuts the 8-site base chain,
        # which has no sites 10..19
        assert main(["duality", "--config", write_config(tmp_path, SIZE_SWEEP),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config.partitions[0]: ")
        doc = {**SIZE_SWEEP, "model": {"family": "uniform_chain",
                                       "params": {"L": 24, "t": 1.0}}}
        assert main(["duality", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "duality.json").read_text())
        assert [p["partition_size"] for p in payload] == [10]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_size_a_sweep_point_cannot_take_exit_1_before_computing(
            self, tmp_path, capsys, workers):
        doc = {**BASE, "model": GUO_12,
               "sweep": {"parameter": "L", "values": [12, 13]}}
        assert main(["entanglement", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path), "--workers", workers]) == 1
        assert capsys.readouterr().err == (
            "configuration error: config.sweep.values: "
            "L=13 not divisible by cell size n=3\n")
        assert not (tmp_path / "entanglement.csv").exists()

    @pytest.mark.parametrize("target", ["nhent.models.ModelSpec.build",
                                        "nhent.cli.ground_state_system"],
                             ids=["build", "solve"])
    def test_memory_error_is_a_numerical_failure(self, tmp_path, capsys,
                                                 monkeypatch, target):
        class ArrayMemoryError(MemoryError):  # as numpy raises it
            pass

        def out_of_memory(*_):
            raise ArrayMemoryError("Unable to allocate 64.0 GiB")
        monkeypatch.setattr(target, out_of_memory)
        assert main(["entanglement", "--config", write_config(tmp_path, BASE),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: MemoryError: Unable to allocate 64.0 GiB\n")

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "unknown_key": 1})
        assert main(["entanglement", "--config", cfg,
                     "--out", str(tmp_path)]) == 1

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"model": }', encoding="utf-8")
        assert main(["entanglement", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_tolerance_override_parsing(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["entanglement", "--config", cfg, "--out", str(tmp_path),
                     "--tolerance", "midgap=0.2"]) == 0
        assert main(["entanglement", "--config", cfg, "--out", str(tmp_path),
                     "--tolerance", "bogus=1"]) == 1

    def test_tolerance_override_reaches_entanglement(self, tmp_path):
        # open uniform chain, cut of 3 sites: eps = {0.004, 0.5, 0.996}, so
        # clamp = 0.3 leaves only the eps = 1/2 mode and S = ln 2
        doc = {"model": {"family": "hatano_nelson",
                         "params": {"L": 12, "t": 1.0, "alpha": 0.0},
                         "bc": "open"},
               "partitions": [{"type": "range", "start": 0, "stop": 3}],
               "sweep": {"parameter": "alpha", "values": [0.0, 0.5]}}
        json_cfg = write_config(tmp_path, {**doc, "tolerances": {"clamp": 0.3}},
                                "json.json")
        cli_cfg = write_config(tmp_path, doc, "cli.json")
        runs = {
            "json": (json_cfg, []),
            "cli": (cli_cfg, ["--tolerance", "clamp=0.3"]),
            "cli_w2": (cli_cfg, ["--tolerance", "clamp=0.3", "--workers", "2"]),
        }
        csv = {}
        for name, (cfg, extra) in runs.items():
            out = tmp_path / name
            out.mkdir()
            assert main(["entanglement", "--config", cfg, "--out", str(out),
                         *extra]) == 0
            csv[name] = (out / "entanglement.csv").read_text()
        assert csv["cli"] == csv["json"] == csv["cli_w2"]
        rows = csv["json"].splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert float(row.split(",")[3]) == pytest.approx(np.log(2), abs=1e-10)

    def test_fit_command(self, tmp_path):
        rows = ["L_A,Re_S,Im_S"]
        for la in range(4, 61):
            s = (1.0 / 3) * np.log(np.sin(np.pi * la / 64)) + 1.5
            rows.append(f"{la},{s},0")
        series = tmp_path / "series.csv"
        series.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"fit": {"geometry": "chord",
                                              "length": 64}})
        assert main(["fit", "--config", cfg, "--series", str(series),
                     "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert abs(fit["c"] - 1.0) < 1e-9
        assert abs(fit["intercept"] - 1.5) < 1e-9

    def test_fit_rejects_repeated_sizes(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("L_A,Re_S,Im_S\n4,0.5,0\n4,0.5,0\n8,0.7,0\n",
                          encoding="utf-8")
        cfg = write_config(tmp_path, {"fit": {"geometry": "chord",
                                              "length": 64}})
        assert main(["fit", "--config", cfg, "--series", str(series),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert str(series) in err and "strictly increasing" in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("csv_text, message", [
        ("L_A,S\n4,0.5\n8,0.7\n", "needs L_A and Re_S columns"),
        ("L_A,Re_S,Im_S\n4,0.5,0\n8,abc,0\n", "line 3"),
        (None, "cannot read series"),
    ], ids=["no_Re_S_column", "non_numeric_Re_S", "missing_file"])
    def test_fit_rejects_malformed_series(self, tmp_path, capsys, csv_text,
                                          message):
        series = tmp_path / "series.csv"
        if csv_text is not None:
            series.write_text(csv_text, encoding="utf-8")
        cfg = write_config(tmp_path, {"fit": {"geometry": "chord",
                                              "length": 64}})
        assert main(["fit", "--config", cfg, "--series", str(series),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("command, doc, path", [
        ("oracle", {"oracle": {"n_modes": "six"}}, "config.oracle.n_modes"),
        ("fit", {"fit": {"geometry": "chord", "length": 64.5}},
         "config.fit.length"),
        ("oracle", {"oracle": {"n_modes": 6, "subsystem": 6}},
         "config.oracle.subsystem"),
        ("entanglement", {**BASE, "renyi": ["two"]}, "config.renyi"),
        ("entanglement", {**BASE, "renyi": 2}, "config.renyi"),
        ("entanglement", {**BASE, "tolerances": [1]}, "config.tolerances"),
        ("entanglement", {**BASE, "model": {"family": "hatano_nelson",
                                            "params": [1]}},
         "config.model.params"),
        ("entanglement", {**BASE, "model": {"family": ["nh_ssh"],
                                            "params": {}}},
         "config.model.family"),
        ("entanglement", {**BASE, "partitions": 3}, "config.partitions"),
        ("entanglement", {**BASE, "model": {
            "family": "chern_ribbon", "params": {
                "L": 8, "k_perp": 0.7, "t": 1.0, "m": -1.0, "gamma": 0.5,
                "cut_axis": "y"}, "bc": "periodic"}}, "config.model.bc"),
        ("entanglement", {**BASE, "tolerances": {"clamp": "abc"}},
         "tolerances.clamp"),
        ("entanglement", {**BASE, "model": {
            "family": "hatano_nelson", "params": {"L": "x", "t": 1.0,
                                                  "alpha": 0.3}}},
         "config.model.params"),
        ("dynamics", {"model": {**DYNAMICS["model"], "bc": "foo"},
                      "dynamics": {"t_grid": [0.0, 1.0]}}, "config.model.bc"),
        ("entanglement", {**BASE, "model": {
            "family": "hatano_nelson", "params": {"L": 6.7, "t": 1.0,
                                                  "alpha": 0.5}}},
         "config.model.params"),
        ("entanglement", {**BASE, "model": {
            "family": "hatano_nelson", "params": {"L": 8, "t": 1.0,
                                                  "alpha": 0.5}},
            "sweep": {"parameter": "L", "values": [8, 8.9]}},
         "config.sweep.values"),
        ("entanglement", {**BASE, "model": GUO_13}, "config.model.params"),
        ("entanglement", {**BASE, "model": GUO_12,
                          "sweep": {"parameter": "L", "values": [12, 13]}},
         "config.sweep.values"),
        *[("entanglement", {**BASE, "partitions": [part]},
           f"config.partitions[0].{key}") for key, part in [
            ("start", {"type": "range", "start": "x", "stop": 4}),
            ("stop", {"type": "range", "start": 0, "stop": 2.5}),
            ("indices", {"type": "indices", "indices": [0, "a"]}),
            ("indices", {"type": "indices", "indices": 3}),
            ("p", {"type": "dual_half", "p": "x"}),
            ("min", {"type": "size_scan", "min": "x"}),
            ("max", {"type": "size_scan", "max": None}),
            ("step", {"type": "size_scan", "step": True}),
        ]],
        *[("dynamics", {**DYNAMICS, "dynamics": {"t_grid": grid}},
           f"config.dynamics.t_grid{key}") for key, grid in [
            (".start", {"start": "x", "stop": 1.0, "num": 3}),
            (".stop", {"start": 0.0, "stop": [1], "num": 3}),
            (".num", {"start": 0.0, "stop": 1.0, "num": 2.5}),
            ("[1]", [0.0, "one"]),
            ("[1]", [0.0, float("nan"), 2.0]),
            ("[1]", [0.0, float("inf")]),
            (".start", {"start": float("-inf"), "stop": 1.0, "num": 3}),
            (".num", {"start": 0.0, "stop": 1.0, "num": -1}),
        ]],
        ("dynamics", {**DYNAMICS, "dynamics": {"t_grid": [0.0, 1.0]},
                      "tolerances": {"clamp": float("nan")}},
         "tolerances.clamp"),
        # the gate on defectiveness is fixed, not a tolerance
        ("entanglement", {**BASE, "tolerances": {"defective": 1e14}},
         "tolerances"),
        *[("entanglement", {**BASE, "partitions": [part]},
           "config.partitions[0]") for part in [
            {"type": "range", "start": 6, "stop": 3},
            {"type": "indices", "indices": [0, 99]},
            {"type": "half", "space": "moment"},
            {"type": "size_scan", "min": 0},
        ]],
        ("dynamics", {**DYNAMICS, "dynamics": {
            "t_grid": [0.0, 1.0],
            "partition": {"type": "range", "start": 3, "stop": 3}}},
         "config.dynamics.partition"),
        *[("fit", {"fit": {"geometry": "chord", "length": 64,
                           "window": window}}, "config.fit.window")
          for window in ("abc", [4], [4, "x"])],
    ], ids=["oracle_n_modes", "fit_length", "oracle_subsystem_range", "renyi",
            "renyi_not_list", "tolerances_not_object", "params_not_object",
            "family_not_string", "partitions_not_list", "chern_ribbon_periodic",
            "tolerance_json", "model_param_not_number", "model_bc_unknown",
            "model_size_not_integral", "sweep_size_not_integral",
            "model_size_not_taken", "sweep_size_not_taken",
            "partition_start", "partition_stop",
            "partition_indices", "partition_indices_not_list", "partition_p",
            "partition_min",
            "partition_max", "partition_step", "t_grid_start", "t_grid_stop",
            "t_grid_num", "t_grid_list", "t_grid_nan", "t_grid_infinity",
            "t_grid_start_infinity", "t_grid_num_negative", "tolerance_nan",
            "tolerance_defective",
            "partition_range_reversed", "partition_indices_out_of_range",
            "partition_unknown_space", "partition_size_scan_empty",
            "dynamics_partition_empty", "fit_window_not_list",
            "fit_window_one_entry", "fit_window_not_integer"])
    def test_malformed_config_values_exit_1(self, tmp_path, capsys, command,
                                            doc, path):
        cfg = write_config(tmp_path, doc)
        extra = ["--series", str(tmp_path / "none.csv")] * (command == "fit")
        assert main([command, "--config", cfg, "--out", str(tmp_path),
                     *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ")

    def test_out_directory_is_created(self, tmp_path):
        cfg = write_config(tmp_path, {"oracle": {"n_cases": 1, "n_modes": 6,
                                                 "subsystem": 3}})
        out = tmp_path / "new" / "nested"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "oracle.json").read_text())["passed"] is True
        assert (out / "manifest.json").exists()

    def test_out_naming_a_file_exit_1_before_computing(self, tmp_path, capsys,
                                                       monkeypatch):
        def suite(**_):
            raise AssertionError("the suite ran before --out was checked")
        monkeypatch.setattr("nhent.cli.oracle_equivalence_suite", suite)
        out = tmp_path / "taken"
        out.write_text("keep", encoding="utf-8")
        assert main(["oracle", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: --out: ")
        assert out.read_text(encoding="utf-8") == "keep"

    def test_oversized_oracle_exit_1_before_computing(self, tmp_path, capsys,
                                                      monkeypatch):
        def suite(**_):
            raise AssertionError("the suite ran on an oversized config")
        monkeypatch.setattr("nhent.cli.oracle_equivalence_suite", suite)
        cfg = write_config(tmp_path, {"oracle": {"n_modes": 15}})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: config.oracle.n_modes: ")
        assert not (tmp_path / "oracle.json").exists()

    def test_malformed_tolerance_flag_exit_1(self, tmp_path, capsys):
        assert main(["oracle", "--out", str(tmp_path),
                     "--tolerance", "oracle=abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: tolerances.oracle: ")

    def test_dynamics_command(self, tmp_path):
        doc = {
            "model": {"family": "measurement_chain",
                      "params": {"L": 12, "t": 1.0, "Gamma": 0.4},
                      "bc": "open"},
            "dynamics": {"t_grid": {"start": 0.0, "stop": 4.0, "num": 5},
                         "initial_state": "staggered",
                         "partition": {"type": "half"}},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["dynamics", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "dynamics.csv").read_text().splitlines()
        assert lines[0] == "time,Re_S,Im_S,trace_residual"
        assert len(lines) == 6
        assert float(lines[-1].split(",")[3]) < 1e-9

    def test_dynamics_refuses_a_momentum_partition(self, tmp_path, capsys):
        # no-jump runs cut position rows; the refusal comes before any
        # output is written
        cfg = write_config(tmp_path, {**DYNAMICS, "dynamics": {
            "t_grid": [0.0, 1.0],
            "partition": {"type": "half", "space": "momentum"}}})
        out = tmp_path / "out"
        assert main(["dynamics", "--config", cfg, "--out", str(out)]) != 0
        assert "UnsupportedError" in capsys.readouterr().err
        assert not (out / "dynamics.csv").exists()

    def test_dynamics_applies_configured_clamp(self, tmp_path):
        doc = {
            "model": {"family": "measurement_chain",
                      "params": {"L": 12, "t": 1.0, "Gamma": 0.5},
                      "bc": "open"},
            "dynamics": {"t_grid": [0.0, 1.0, 2.0],
                         "initial_state": "staggered"},
        }
        cfg = write_config(tmp_path, doc)
        entropies = {}
        for name, extra in (("default", []),
                            ("clamped", ["--tolerance", "clamp=0.45"])):
            out = tmp_path / name
            out.mkdir()
            assert main(["dynamics", "--config", cfg, "--out", str(out),
                         *extra]) == 0
            lines = (out / "dynamics.csv").read_text().splitlines()[1:]
            entropies[name] = [float(line.split(",")[1]) for line in lines]
        assert entropies["default"][1] > 0.05
        assert entropies["clamped"] == [0.0, 0.0, 0.0]

    def test_duality_command(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["duality", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "duality.json").read_text())
        assert payload[0]["max_mismatch"] < 1e-9

    def test_oracle_command_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"oracle": {"n_cases": 3, "n_modes": 6,
                                                 "subsystem": 3}})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "oracle.json").read_text())
        assert payload["passed"] is True

    def test_oracle_records_each_case_warnings(self, tmp_path):
        # the nh-ssh chain's edge pair +-0.3i ties at the Fermi level
        cfg = write_config(tmp_path, {"oracle": {"n_cases": 1, "n_modes": 6,
                                                 "subsystem": 3}})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
        cases = json.loads((tmp_path / "oracle.json").read_text())["cases"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        warned = {c["case"]: c["warnings"] for c in cases}
        assert warned["random-0"] == warned["hatano-nelson"] == []
        assert len(warned["nh-ssh"]) == 1
        assert warned["nh-ssh"][0].startswith(
            "occupation boundary degenerate under policy 'real_part'")
        assert {p["value"]: p["warnings"]
                for p in manifest["points"]} == warned

    def test_duality_records_warnings(self, tmp_path):
        # the Fermi level of the 16-site ring ties k = +-pi/2
        doc = {"model": {"family": "uniform_chain",
                         "params": {"L": 16, "t": 1.0}, "bc": "periodic"},
               "partitions": [{"type": "half"}]}
        cfg = write_config(tmp_path, doc)
        assert main(["duality", "--config", cfg, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert any("degenerate" in w
                   for w in manifest["points"][0]["warnings"])

    def test_parser_is_built_once_and_keeps_no_flags(self, tmp_path,
                                                     monkeypatch):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        cli._parser.cache_clear()
        seen = []

        def suite(**kwargs):
            seen.append(kwargs["entropy_tol"])
            return []
        monkeypatch.setattr("nhent.cli.oracle_equivalence_suite", suite)
        out = str(tmp_path)
        for extra in (["--tolerance", "oracle=1e-3"], []):
            assert main(["oracle", "--out", out, *extra]) == 0
        assert built == [1]
        # the appended flag of the first call is not a default of the next
        assert seen == [1e-3, parse_config({}).tolerances.oracle]
        cli._parser.cache_clear()

    def test_oracle_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"oracle": {"n_cases": 2, "n_modes": 6,
                                                 "subsystem": 3}})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path),
                     "--tolerance", "oracle=1e-30"]) == 2
