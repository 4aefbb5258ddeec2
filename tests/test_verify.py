import numpy as np

from liftguard import factor, lift, linalg, model, verify, zeros


def test_nan_bezout_defect_is_a_failure(monkeypatch):
    # the property reads the defect the factorization's own check computed
    factorize = verify.coprime_factorize

    def nan_defect(*args, certificate, **kwargs):
        factors = factorize(*args, certificate=certificate, **kwargs)
        certificate[0] = float("nan")
        return factors

    monkeypatch.setattr(verify, "coprime_factorize", nan_defect)
    found = verify._prop_bezout(verify._factored_plant(np.random.default_rng(0)))
    assert found is not None and found[1] == "defect nan"


def test_nan_identity_error_is_a_failure(monkeypatch):
    # Only the third identity reads B_lift, so the NaN is not the first of
    # the three errors.
    lifted = verify.build_lifted

    def nan_input_block(*args, certificate):
        L = lifted(*args, certificate=certificate)
        B = np.array(L.B)
        B[0, 0] = np.nan
        object.__setattr__(L, "B", B)
        return L

    monkeypatch.setattr(verify, "build_lifted", nan_input_block)
    found = verify._prop_structural_identities(verify._lifted_plant(np.random.default_rng(0)))
    assert found is not None and found[1] == "identity error nan"


def test_each_system_checked_for_minimality_once(monkeypatch):
    checked = []
    check_minimal = model.check_minimal

    def counted(sys):
        checked.append(sys)  # holds every object, so no id is reused
        return check_minimal(sys)

    for mod in (model, verify):
        monkeypatch.setattr(mod, "check_minimal", counted)
    assert all(p["status"] == "pass" for p in verify.run_suite(trials=3, seed=0))
    assert len({id(s) for s in checked}) == len(checked) > 0


def test_suite_factors_only_what_it_reads(monkeypatch):
    # The Bezout and factor-set properties (10 trials) read one full
    # factorization per trial, whose two Riccati equations take one solve;
    # the lifted property (5) decides frequency one on the system pencil,
    # with no factor: 10 solves.
    counts = {"dare_gain": 0, "coprime_factorize": 0}

    def count(mod, name):
        fn = getattr(mod, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    count(linalg, "dare_gain")
    count(verify, "coprime_factorize")
    assert all(p["status"] == "pass" for p in verify.run_suite(trials=10, seed=0))
    assert counts == {"dare_gain": 10, "coprime_factorize": 10}


def test_suite_computes_each_bezout_defect_once(monkeypatch):
    # each of the 10 Bezout trials reads the defect that coprime_factorize's
    # construction check computed instead of evaluating the factors again
    calls = []
    scaled = factor._bezout_defect_scaled

    def counted(factors):
        calls.append(factors)
        return scaled(factors)

    monkeypatch.setattr(factor, "_bezout_defect_scaled", counted)
    assert all(p["status"] == "pass" for p in verify.run_suite(trials=10, seed=0))
    assert len(calls) == 10


def test_suite_reads_zeros_as_values_and_certifies_once(monkeypatch):
    # The zero properties read values only: 20 + 10 discrete pencils and
    # 5 lifted systems, each deciding on its one small pencil, one
    # pencil_matrix call each; each lifted system's pencil at frequency one
    # adds one.
    # The four lifted properties share 5 lifted systems, each certified
    # once by build_lifted; the negative control certifies the corrupted
    # copy of the first.
    counts = dict.fromkeys(
        ["transmission_zeros", "poles", "_null_directions", "pencil_matrix",
         "shift_consistency_check"],
        0,
    )

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for mod in (zeros, lift, verify):
        for name in counts:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    assert all(p["status"] == "pass" for p in verify.run_suite(trials=10, seed=0))
    assert counts == {
        "transmission_zeros": 0,
        "poles": 0,
        "_null_directions": 0,
        "pencil_matrix": 40,
        "shift_consistency_check": 6,
    }


def _stream(seed, idx, n):
    rng = np.random.default_rng([seed, idx])
    return [int(rng.integers(0, 2**31)) for _ in range(n)]


def test_families_share_their_trials(monkeypatch):
    # With every check forced to fail, each property reports the first
    # (at most 5) trial seeds it checked.  The similarity property and the
    # first of each family keep their own [seed, idx] streams; the factor
    # family shares the stream [0, 1] and the lifted family [0, 3].
    def forced(trial):
        return trial[0], "forced failure"

    props = [(name, draw, forced, scale) for name, draw, _, scale in verify._PROPERTIES]
    monkeypatch.setattr(verify, "_PROPERTIES", tuple(props))
    report = verify.run_suite(trials=10, seed=0)
    assert [p["trials"] for p in report] == [10, 10, 10, 5, 5, 3, 1]
    seeds = [[f["seed"] for f in p["failures"]] for p in report]
    assert seeds[0] == _stream(0, 0, 5)
    assert seeds[1] == seeds[2] == _stream(0, 1, 5)
    lifted = _stream(0, 3, 5)
    assert seeds[3:] == [lifted, lifted, lifted[:3], lifted[:1]]
