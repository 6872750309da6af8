"""CLI ↔ facade parity: ``repro <op> --json`` must print exactly the
facade result's JSON — identical modulo the ``"wall"`` section.  This
is the contract that lets the server, the CLI, and library callers
trust they are seeing the same engine."""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.cli import main
from repro.fleet.client import BackendClient
from repro.fleet.router import RouterConfig, ShardRouter
from repro.serve import AnalysisService, ServeConfig

FIG5 = """
(declaim (sapp f5 l))
(defun f5 (l)
  (cond ((null l) nil)
        ((null (cdr l)) (f5 (cdr l)))
        (t (setf (cadr l) (+ (car l) (cadr l)))
           (f5 (cdr l)))))
(setq data (list 1 2 3 4))
"""


@pytest.fixture
def fig5_file(tmp_path):
    path = tmp_path / "fig5.lisp"
    path.write_text(FIG5, encoding="utf-8")
    return str(path)


def _cli_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _modulo_wall(doc):
    return api.canonical_json(api.strip_wall(doc))


class TestRunParity:
    def test_plain_run(self, fig5_file, capsys):
        cli = _cli_json(capsys, ["run", fig5_file, "-e", "(+ 20 22)",
                                 "--json"])
        facade = api.run(FIG5, "(+ 20 22)").to_dict()
        assert _modulo_wall(cli) == _modulo_wall(facade)

    def test_transform_run_with_seed_and_faults(self, fig5_file, capsys):
        argv = ["run", fig5_file, "--transform", "f5",
                "-e", "(progn (f5-cc data) (identity data))",
                "--seed", "3", "--faults", "mixed", "--race-check",
                "--json"]
        cli = _cli_json(capsys, argv)
        facade = api.run(
            FIG5, "(progn (f5-cc data) (identity data))",
            api.RunOptions(transform=("f5",), seed=3, faults="mixed",
                           race_check=True)).to_dict()
        assert _modulo_wall(cli) == _modulo_wall(facade)
        assert cli["value"] == "(1 3 6 10)"

    def test_json_and_human_agree_on_value(self, fig5_file, capsys):
        cli = _cli_json(capsys, ["run", fig5_file, "-e", "(+ 1 2)",
                                 "--json"])
        assert main(["run", fig5_file, "-e", "(+ 1 2)"]) == 0
        human = capsys.readouterr().out
        assert f";; value: {cli['value']}" in human


class TestAnalyzeParity:
    def test_analysis_json(self, fig5_file, capsys):
        cli = _cli_json(capsys, ["analyze", fig5_file, "-f", "f5",
                                 "--json"])
        facade = api.analyze(FIG5, "f5").to_dict()
        assert _modulo_wall(cli) == _modulo_wall(facade)
        assert cli["kind"] == "analysis"

    def test_text_field_matches_human_rendering(self, fig5_file, capsys):
        cli = _cli_json(capsys, ["analyze", fig5_file, "-f", "f5",
                                 "--json"])
        assert main(["analyze", fig5_file, "-f", "f5"]) == 0
        human = capsys.readouterr().out
        assert cli["text"].strip() == human.strip()


class TestTransformParity:
    def test_transform_json(self, fig5_file, capsys):
        cli = _cli_json(capsys, ["transform", fig5_file, "-f", "f5",
                                 "--json"])
        facade = api.transform(FIG5, "f5").to_dict()
        assert _modulo_wall(cli) == _modulo_wall(facade)

    def test_emitted_forms_match_human_output(self, fig5_file, capsys):
        cli = _cli_json(capsys, ["transform", fig5_file, "-f", "f5",
                                 "--json"])
        assert main(["transform", fig5_file, "-f", "f5"]) == 0
        human = capsys.readouterr().out
        for group in cli["forms"]:
            for form in group:
                assert form in human

    def test_untransformable_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "plain.lisp"
        path.write_text("(defun g (x) (* x 2))", encoding="utf-8")
        assert main(["transform", str(path), "-f", "g", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["transformed"] is False


class _Topology:
    """One serving topology under test, addressed as NDJSON/TCP.

    Backends start first (so a router can be built over their ports);
    the front is the router if there is one, else the sole backend.
    """

    def __init__(self, servers, router_factory=None):
        self.servers = servers
        self.threads = []
        self.router = None
        specs = []
        for server in servers:
            host, port = server.start()
            specs.append(f"{host}:{port}")
            self._pump(server)
        self.address = (host, port)
        if router_factory is not None:
            self.router = router_factory(tuple(specs))
            self.address = self.router.start()
            self._pump(self.router)
        self.client = BackendClient("front", *self.address,
                                    connect_timeout_s=2.0)

    def _pump(self, server):
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        self.threads.append(thread)

    def call(self, op, params):
        response = self.client.call(op, params, timeout_s=120.0)
        assert response["ok"] is True, response
        return response["result"]

    def close(self):
        if self.router is not None:
            self.router.stop(timeout=10.0)
        for server in self.servers:
            server.stop(timeout=10.0)
        for thread in self.threads:
            thread.join(timeout=10.0)


def _thread_pool_topology():
    return _Topology([AnalysisService(ServeConfig(workers=2))])


def _process_pool_topology():
    return _Topology([AnalysisService(ServeConfig(workers=1,
                                                  executor="process"))])


def _router_topology():
    return _Topology(
        [AnalysisService(ServeConfig(workers=2)) for _ in range(3)],
        router_factory=lambda specs: ShardRouter(RouterConfig(
            backends=specs, connect_timeout_s=2.0,
            probe_interval_s=10.0, cache_size=0)))


TOPOLOGIES = {
    "thread-pool": _thread_pool_topology,
    "process-pool": _process_pool_topology,
    "router-3": _router_topology,
}


@pytest.fixture(params=sorted(TOPOLOGIES))
def topology(request):
    top = TOPOLOGIES[request.param]()
    yield top
    top.close()


class TestTopologyParity:
    """The fleet contract: every serving topology — one thread-pool
    backend, one process-pool backend, a 3-backend shard router — is
    indistinguishable from the facade, byte-for-byte modulo wall."""

    def test_analyze(self, topology):
        result = topology.call("analyze", {"source": FIG5,
                                           "function": "f5"})
        facade = api.analyze(FIG5, "f5").to_dict()
        assert _modulo_wall(result) == _modulo_wall(facade)

    def test_transform(self, topology):
        result = topology.call("transform", {"source": FIG5,
                                             "function": "f5"})
        facade = api.transform(FIG5, "f5").to_dict()
        assert _modulo_wall(result) == _modulo_wall(facade)

    def test_transformed_run(self, topology):
        params = {"source": FIG5,
                  "expr": "(progn (f5-cc data) (identity data))",
                  "transform": ["f5"]}
        result = topology.call("run", params)
        facade = api.run(
            FIG5, "(progn (f5-cc data) (identity data))",
            api.RunOptions(transform=("f5",))).to_dict()
        assert _modulo_wall(result) == _modulo_wall(facade)
        assert result["value"] == "(1 3 6 10)"
