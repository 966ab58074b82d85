import pytest

import qcsim
from qcsim.errors import DuplicateServiceError, HetMapTypeError, ServiceNotFoundError
from qcsim.registry import (
    HeterogeneousMap,
    ServiceKind,
    get_service,
    list_services,
    register_service,
)


class _Dummy:
    def __init__(self, name="dummy"):
        self._name = name

    def name(self):
        return self._name


class TestHeterogeneousMap:
    def test_round_trip_scalars(self):
        m = HeterogeneousMap({"shots": 1024, "tol": 1e-6, "tag": "x", "flag": True})
        assert m.get_int("shots") == 1024
        assert m.get_real("tol") == 1e-6
        assert m.get_string("tag") == "x"
        assert m.get_bool("flag") is True

    def test_kind_mismatch_is_an_error(self):
        m = HeterogeneousMap({"shots": 1024})
        with pytest.raises(HetMapTypeError):
            m.get_string("shots")
        with pytest.raises(HetMapTypeError):
            m.get_bool("shots")

    def test_bool_is_not_an_int(self):
        m = HeterogeneousMap({"flag": True})
        with pytest.raises(HetMapTypeError):
            m.get_int("flag")

    def test_int_promotes_to_real_only(self):
        m = HeterogeneousMap({"steps": 3})
        assert m.get_real("steps") == 3.0
        assert m.get_int("steps") == 3

    def test_insert_replaces(self):
        m = HeterogeneousMap({"k": 1})
        m.insert("k", "now a string")
        assert m.get_string("k") == "now a string"

    def test_lists(self):
        m = HeterogeneousMap({"xs": [1.0, 2.5], "ns": [1, 2], "ss": ["a", "b"]})
        assert m.get_real_list("xs") == [1.0, 2.5]
        assert m.get_int_list("ns") == [1, 2]
        assert m.get_string_list("ss") == ["a", "b"]
        with pytest.raises(HetMapTypeError):
            m.get_int_list("xs")

    @pytest.mark.parametrize("empty", [[], ()], ids=["list", "tuple"])
    def test_an_empty_list_reads_at_every_list_kind(self, empty):
        m = HeterogeneousMap()
        m.insert("xs", empty)
        assert m.get_int_list("xs") == []
        assert m.get_real_list("xs") == []
        assert m.get_string_list("xs") == []
        assert m.get_or("xs", "real-list", [1.0]) == []
        m.read_declared({"xs": "string-list"}, "owner", HetMapTypeError)
        for scalar in ("int", "real", "string", "bool"):
            with pytest.raises(HetMapTypeError):
                m.get("xs", scalar)

    def test_lists_of_booleans_are_refused(self):
        with pytest.raises(HetMapTypeError, match="booleans"):
            HeterogeneousMap({"flags": [True, False]})

    def test_missing_key(self):
        with pytest.raises(KeyError):
            HeterogeneousMap().get_int("absent")

    def test_reference_kinds(self):
        obs = qcsim.PauliOperator({0: "Z"}, 1.0)
        circ = qcsim.create_composite("c")
        m = HeterogeneousMap({"observable": obs, "ansatz": circ})
        assert m.get_observable("observable") is obs
        assert m.get_composite("ansatz") is circ
        with pytest.raises(HetMapTypeError):
            m.get_observable("ansatz")


class TestRegistry:
    def test_registration_round_trip(self):
        register_service(ServiceKind.COMPILER, "dummy-compiler", _Dummy)
        svc = get_service(ServiceKind.COMPILER, "dummy-compiler")
        assert svc.name() == "dummy"

    def test_duplicate_registration_rejected(self):
        register_service(ServiceKind.COMPILER, "dup-svc", _Dummy)
        with pytest.raises(DuplicateServiceError):
            register_service(ServiceKind.COMPILER, "dup-svc", _Dummy)

    def test_unknown_service_lists_available(self):
        with pytest.raises(ServiceNotFoundError) as err:
            get_service(ServiceKind.OPTIMIZER, "does-not-exist")
        assert "nelder-mead" in str(err.value)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_service(ServiceKind.COMPILER, "", _Dummy)

    def test_fresh_instances(self):
        a = get_service(ServiceKind.OPTIMIZER, "nelder-mead")
        b = get_service(ServiceKind.OPTIMIZER, "nelder-mead")
        assert a is not b

    def test_name_identity_contract(self):
        for kind in ServiceKind:
            for name in list_services(kind):
                if name in ("dummy-compiler", "dup-svc"):
                    continue
                assert get_service(kind, name).name() == name

    def test_default_algorithms_present(self):
        names = list_services(ServiceKind.ALGORITHM)
        assert {"vqe", "adapt", "qite", "qcmx", "qeom"} <= set(names)
        assert names == sorted(names)

    def test_listing_contains_new_registration_once(self):
        register_service(ServiceKind.COMPILER, "only-once", _Dummy)
        names = list_services(ServiceKind.COMPILER)
        assert names.count("only-once") == 1

    def test_nelder_mead_lookup(self):
        opt = get_service(ServiceKind.OPTIMIZER, "nelder-mead")
        assert opt.name() == "nelder-mead"

    def test_qcmx_lookup(self):
        algo = get_service(ServiceKind.ALGORITHM, "qcmx")
        assert algo.name() == "qcmx"


# Each service kind and the public getter that looks it up by name.
PUBLIC_GETTERS = {
    ServiceKind.ACCELERATOR: qcsim.get_accelerator,
    ServiceKind.OPTIMIZER: qcsim.get_optimizer,
    ServiceKind.ALGORITHM: qcsim.get_algorithm,
    ServiceKind.COMPILER: qcsim.get_compiler,
}


class TestReachability:
    def test_every_kind_has_a_public_getter(self):
        assert set(ServiceKind) == set(PUBLIC_GETTERS)
        assert len(ServiceKind) == 4

    def test_every_registered_service_is_reachable(self):
        for kind, getter in PUBLIC_GETTERS.items():
            for name in list_services(kind):
                if name in ("dummy-compiler", "dup-svc", "only-once"):
                    continue
                assert getter(name).name() == name

    def test_xasm_compiler_matches_parse_kernel(self):
        source = (
            "__qpu__ void ansatz(qbit q, double t) {\n"
            "  X(q[0]);\n"
            "  Ry(q[1], -0.5*t);\n"
            "  CNOT(q[1], q[0]);\n"
            "  Measure(q[0]);\n"
            "}"
        )
        compiled = qcsim.get_compiler("xasm").compile(source)
        assert compiled == qcsim.parse_kernel(source)
        assert compiled.variables == ["t"]
