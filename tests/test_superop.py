"""Phase-out, matrix representations, classification, and closure."""

import numpy as np
import pytest

from qopcoh import superop
from qopcoh.channel import (
    QuantumOperation,
    dephasing_operation,
    hadamard_operation,
    identity_operation,
    is_cptp,
    is_incoherent_operation,
    kraus_from_choi,
    pauli_x_operation,
    random_cptp,
    random_incoherent_cptp,
)
from qopcoh.exceptions import (
    DimensionMismatchError,
    GeneratorExhaustedError,
    InputNotCPTPError,
    InvalidKrausError,
    NoKrausFormError,
    NotFiniteError,
    WeightError,
)
from qopcoh.linalg import dagger, devectorize, max_abs, vectorize
from qopcoh.suites import run_suite
from qopcoh.superop import (
    CLASS_NAMES,
    ClassificationReport,
    Superoperation,
    apply,
    check_cptp_preservation,
    check_structural_relations,
    classify,
    closure_harness,
    compose,
    convex_combine,
    kraus_outcomes,
    phase_out,
    phase_out_sandwich,
    random_incoherent_sandwich,
    random_sandwich,
    sample_class_member,
)


def probe_matrix(s: Superoperation) -> np.ndarray:
    """Rebuild the matrix by probing with all matrix units of the Choi space.

    Independent of the batched contraction; used to assert that every
    constructor form and its cached matrix agree.
    """
    dd = s.d * s.d
    out = np.zeros((dd * dd, dd * dd), dtype=complex)
    for c in range(dd * dd):
        unit = np.zeros(dd * dd, dtype=complex)
        unit[c] = 1.0
        e = devectorize(unit, dd)
        if s.choi_kraus is not None:
            image = sum(k @ e @ dagger(k) for k in s.choi_kraus)
        else:
            image = devectorize(s.matrix @ unit, dd)
        out[:, c] = vectorize(image)
    return out


def max_coherent_op(thetas=(0.0, 0.0, 0.0, 0.0)):
    th = np.asarray(thetas, dtype=float).reshape(2, 2)
    return QuantumOperation.from_kraus([np.exp(1j * th.T) / np.sqrt(2)])


class TestPhaseOut:
    def test_strips_uniform_choi_to_quarter_diagonal(self):
        out = apply(phase_out(2), max_coherent_op())
        assert max_abs(out.choi.matrix - np.eye(4) / 4) <= 1e-12

    def test_diagonal_choi_is_fixed_point(self):
        deph = dephasing_operation(2)
        out = apply(phase_out(2), deph)
        assert max_abs(out.choi.matrix - deph.choi.matrix) <= 1e-12

    def test_identity_channel_becomes_dephasing(self):
        out = apply(phase_out(2), identity_operation(2))
        assert max_abs(out.choi.matrix - np.diag([0.5, 0, 0, 0.5])) <= 1e-12

    def test_sandwich_and_kraus_forms_agree(self):
        for d in (2, 3):
            assert max_abs(phase_out(d).matrix - phase_out_sandwich(d).matrix) <= 1e-12

    def test_idempotent(self):
        for d in (2, 3):
            t = phase_out(d).matrix
            assert max_abs(t @ t - t) <= 1e-12


class TestMatrixRepresentation:
    def test_identity_superoperation(self):
        assert max_abs(Superoperation.from_kraus_on_choi([np.eye(4)]).matrix - np.eye(16)) <= 1e-12

    def test_phase_out_is_diagonal_projector(self):
        m = phase_out(2).matrix
        assert max_abs(m - np.diag(np.diag(m))) == 0
        on = [k for k in range(16) if abs(m[k, k]) > 0.5]
        assert on == [0, 5, 10, 15]

    def test_sandwich_matches_induced_kraus_matrix(self):
        x = pauli_x_operation()
        s = Superoperation.from_sandwich(x, x)
        induced = np.kron(x.unitary.T, x.unitary)
        expected = np.kron(induced.conj(), induced)
        assert max_abs(s.matrix - expected) <= 1e-12

    def test_probe_faithfulness_all_forms(self):
        rng = np.random.default_rng(20)
        sandwich = random_sandwich(2, rng)
        kraus = phase_out(2)
        matrix_form = Superoperation.from_matrix(sandwich.matrix, 2)
        for s in (sandwich, kraus, matrix_form):
            assert max_abs(probe_matrix(s) - s.matrix) <= 1e-12


def kron_reference_matrix(choi_kraus):
    """sum_n conj(K_n) (x) K_n, one numpy.kron per Choi-space Kraus operator."""
    return sum(np.kron(k.conj(), k) for k in choi_kraus)


class TestBatchedBuilds:
    def test_sandwich_kraus_stack_is_bit_equal_to_kron(self):
        rng = np.random.default_rng(37)
        for d in (2, 3):
            for p in (1, 2, 3):
                for q in (1, 2, 3):
                    post, pre = random_cptp(d, p, rng), random_cptp(d, q, rng)
                    s = Superoperation.from_sandwich(post, pre)
                    expected = [np.kron(b.T, a) for a in post.kraus_operators for b in pre.kraus_operators]
                    assert len(s.choi_kraus) == p * q
                    for k, e in zip(s.choi_kraus, expected):
                        assert np.array_equal(k, e)

    def test_matrix_matches_kron_reference_and_probe(self):
        rng = np.random.default_rng(38)
        for d in (2, 3):
            dd = d * d
            ks = [(rng.standard_normal((dd, dd)) + 1j * rng.standard_normal((dd, dd))) / dd for _ in range(3)]
            for s in (random_sandwich(d, rng), Superoperation.from_kraus_on_choi(ks)):
                assert max_abs(s.matrix - kron_reference_matrix(s.choi_kraus)) <= 1e-14
                assert max_abs(s.matrix - probe_matrix(s)) <= 1e-14

    def test_phase_out_matrix_is_exact_mask(self):
        for d in (2, 3):
            mask = np.zeros(d**4)
            mask[:: d * d + 1] = 1.0
            assert np.array_equal(phase_out(d).matrix, np.diag(mask))

    def test_phase_out_is_shared_and_read_only(self):
        for d in (2, 3):
            t = phase_out(d)
            assert t is phase_out(d)
            with pytest.raises(ValueError):
                t.matrix[1, 1] = 1.0
            for k in t.choi_kraus:
                with pytest.raises(ValueError):
                    k[0, 1] = 1.0
            assert max_abs(t.matrix - kron_reference_matrix(t.choi_kraus)) == 0

    def test_phase_out_attributes_cannot_be_rebound(self):
        # a rebound d on the shared object would break every later apply
        t = phase_out(2)
        for name, value in (("d", 3), ("form", "matrix"), ("post", None), ("pre", None)):
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        assert t.d == 2 and t.form == "kraus_on_choi"
        c = identity_operation(2).choi.matrix
        assert np.array_equal(apply(phase_out(2), identity_operation(2)).choi.matrix, np.diag(np.diag(c)))

    def test_kraus_on_choi_does_not_alias_its_input(self):
        k = np.eye(4)
        s = Superoperation.from_kraus_on_choi([k])
        m = s.matrix
        k[0, 1] = 5.0
        assert np.array_equal(s.choi_kraus[0], np.eye(4))
        assert max_abs(probe_matrix(s) - m) == 0
        with pytest.raises(ValueError):
            s.choi_kraus[0][0, 1] = 5.0
        sandwich = random_sandwich(2, np.random.default_rng(39))
        with pytest.raises(ValueError):
            sandwich.choi_kraus[0][0, 0] = 0.0

    def test_suites_call_no_kron(self, monkeypatch):
        calls = []
        np_kron = np.kron

        def counting_kron(a, b):
            calls.append((np.shape(a), np.shape(b)))
            return np_kron(a, b)

        monkeypatch.setattr(np, "kron", counting_kron)
        for name, samples in (("theorem21", 1), ("theorem12", 4)):
            assert all(check["pass"] for check in run_suite(name, samples, 0))
        assert calls == []
        np.kron(np.eye(2), np.eye(2))  # the counter sees a call
        assert len(calls) == 1

    def test_kraus_stacks_are_read_without_stacking(self, monkeypatch):
        rng = np.random.default_rng(40)
        post, pre = random_cptp(3, 2, rng), random_incoherent_cptp(3, rng)
        ops = [identity_operation(3), post, QuantumOperation.from_choi(pre.choi.matrix)]
        rho = np.eye(3) / 3
        calls = []
        np_stack = np.stack

        def counting_stack(arrays, *args, **kwargs):
            calls.append(len(arrays))
            return np_stack(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "stack", counting_stack)
        for op in ops:
            op.choi, op.apply(rho), op.completeness_residual, kraus_from_choi(op.choi)
        Superoperation.from_sandwich(post, ops[2]).matrix
        assert calls == []
        QuantumOperation.from_kraus([np.eye(2)])  # admission is where a Kraus set is stacked
        assert calls == [1]


class TestApply:
    def test_identity_superoperation_is_noop(self):
        op = random_cptp(2, 2, 21)
        out = apply(Superoperation.from_kraus_on_choi([np.eye(4)]), op)
        assert max_abs(out.choi.matrix - op.choi.matrix) <= 1e-12

    def test_phase_out_makes_hadamard_incoherent(self):
        out = apply(phase_out(2), hadamard_operation())
        assert is_incoherent_operation(out.choi).ok

    def test_dephasing_sandwich_preserves_cptp(self):
        deph = dephasing_operation(2)
        s = Superoperation.from_sandwich(deph, deph)
        rng = np.random.default_rng(22)
        for _ in range(10):
            out = apply(s, random_cptp(2, int(rng.integers(1, 4)), rng))
            assert is_cptp(out.choi).ok


class TestKrausOutcomes:
    def test_phase_out_on_identity_channel(self):
        outcomes = kraus_outcomes(phase_out(2), identity_operation(2))
        assert len(outcomes) == 2
        weights = sorted(p for p, _ in outcomes)
        assert np.allclose(weights, [0.5, 0.5])
        supports = sorted(int(np.argmax(np.diag(op.choi.matrix).real)) for _, op in outcomes)
        assert supports == [0, 3]

    def test_single_identity_kraus(self):
        op = random_cptp(2, 2, 23)
        outcomes = kraus_outcomes(Superoperation.from_kraus_on_choi([np.eye(4)]), op)
        assert len(outcomes) == 1
        p, out = outcomes[0]
        assert abs(p - 1.0) <= 1e-12
        assert max_abs(out.choi.matrix - op.choi.matrix) <= 1e-12

    def test_phase_out_on_max_coherent(self):
        outcomes = kraus_outcomes(phase_out(2), max_coherent_op())
        assert len(outcomes) == 4
        assert np.allclose([p for p, _ in outcomes], 0.25)

    def test_matrix_form_has_no_kraus(self):
        s = Superoperation.from_matrix(np.eye(16), 2)
        with pytest.raises(NoKrausFormError):
            kraus_outcomes(s, identity_operation(2))


class TestComposeAndCombine:
    def test_phase_out_composition_idempotent(self):
        t = phase_out(2)
        assert max_abs(compose(t, t).matrix - t.matrix) <= 1e-12

    def test_singleton_combination(self):
        s = random_sandwich(2, np.random.default_rng(24))
        c = convex_combine([1.0], [s])
        assert max_abs(c.matrix - s.matrix) <= 1e-12

    def test_half_mixture_halves_offdiagonals(self):
        s = convex_combine([0.5, 0.5], [Superoperation.from_kraus_on_choi([np.eye(4)]), phase_out(2)])
        out = apply(s, hadamard_operation())
        original = hadamard_operation().choi.matrix
        off = original - np.diag(np.diag(original))
        expected = np.diag(np.diag(original)) + off / 2
        assert max_abs(out.choi.matrix - expected) <= 1e-12

    def test_degenerate_weights_equal_operand(self):
        rng = np.random.default_rng(25)
        s1, s2 = random_sandwich(2, rng), random_sandwich(2, rng)
        assert max_abs(convex_combine([0.0, 1.0], [s1, s2]).matrix - s2.matrix) == 0
        assert max_abs(convex_combine([1.0, 0.0], [s1, s2]).matrix - s1.matrix) == 0

    def test_weight_validation(self):
        s = Superoperation.from_kraus_on_choi([np.eye(4)])
        with pytest.raises(WeightError):
            convex_combine([0.4, 0.4], [s, s])
        with pytest.raises(WeightError):
            convex_combine([-0.5, 1.5], [s, s])
        for weights in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, -np.inf]):
            with pytest.raises(WeightError):
                convex_combine(weights, [s, s])

    def test_count_mismatch_is_a_dimension_mismatch(self):
        # raised WeightError, unlike mix_operations and Ensemble for the same mistake
        s = Superoperation.from_kraus_on_choi([np.eye(4)])
        with pytest.raises(DimensionMismatchError, match="one weight per superoperation"):
            convex_combine([0.5, 0.5], [s])
        with pytest.raises(DimensionMismatchError, match="one weight per superoperation"):
            convex_combine([1.0], [s, s])


def product_form_residuals(s):
    """The membership residuals from the full products with the phase-out matrix."""
    m = s.matrix
    t = phase_out(s.d).matrix
    mt = m @ t
    tm = t @ m
    tmt = tm @ t
    r_miso = max_abs(mt - tmt)
    r_star = max_abs(tm - tmt)
    return r_miso, r_star, max(r_miso, r_star, max_abs(mt - tm))


class TestClassify:
    def test_mask_residuals_equal_product_form(self):
        rng = np.random.default_rng(35)
        for d in (2, 3):
            superops = [random_sandwich(d, rng) for _ in range(4)]
            superops += [sample_class_member(name, d, rng) for name in CLASS_NAMES]
            for s in superops:
                rep = classify(s)
                got = (rep.miso_residual, rep.miso_star_residual, rep.diso_residual)
                assert got == product_form_residuals(s)

    def test_rejects_non_finite_matrix(self):
        m = np.array(Superoperation.from_kraus_on_choi([np.eye(4)]).matrix)
        for bad in (np.nan, np.inf):
            m[3, 5] = bad
            with pytest.raises(NotFiniteError):
                Superoperation.from_matrix(m, 2)
            with pytest.raises(InvalidKrausError):
                Superoperation.from_kraus_on_choi([np.diag([1.0, 1.0, 1.0, bad])])

    def test_phase_out_is_diso_with_zero_residual(self):
        rep = classify(phase_out(2))
        assert rep.in_diso and rep.in_miso and rep.in_miso_star
        assert rep.diso_residual <= 1e-14

    def test_incoherent_sandwich_is_miso(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            rep = classify(random_incoherent_sandwich(2, rng))
            assert rep.in_miso

    def test_hadamard_sandwich_not_miso(self):
        h = hadamard_operation()
        rep = classify(Superoperation.from_sandwich(h, h))
        assert not rep.in_miso
        assert rep.miso_residual > 0.01

    def test_verdicts_match_across_representations(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            s = random_sandwich(2, rng)
            direct = classify(s)
            rebuilt = classify(Superoperation.from_matrix(s.matrix, 2))
            assert direct == rebuilt

    def test_diso_is_conjunction(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            rep = classify(random_sandwich(2, rng))
            assert rep.in_diso == (rep.in_miso and rep.in_miso_star)


class TestStructuralRelations:
    def test_arbitrary_superoperations_satisfy_phaseout_miso(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            rep = check_structural_relations(random_sandwich(2, rng))
            assert rep.phaseout_after_is_miso
            assert rep.phaseout_both_sides_is_miso

    def test_phase_out_satisfies_all(self):
        rep = check_structural_relations(phase_out(2))
        assert rep.ok
        assert rep.input_in_miso_star

    def test_miso_star_members_keep_star_membership(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            member = sample_class_member("miso_star", 2, rng)
            rep = check_structural_relations(member)
            assert rep.input_in_miso_star
            assert rep.phaseout_after_is_miso_star
            assert rep.phaseout_before_is_miso_star


class TestCptpPreservation:
    def test_identity_channel(self):
        rep = check_cptp_preservation(identity_operation(2))
        assert rep.ok
        assert rep == is_cptp(apply(phase_out(2), identity_operation(2)).choi)

    def test_random_channels(self):
        rng = np.random.default_rng(31)
        for d in (2, 3):
            for _ in range(25):
                rep = check_cptp_preservation(random_cptp(d, int(rng.integers(1, 4)), rng))
                assert rep.ok
                assert rep.marginal_residual <= 1e-9

    def test_rejects_non_cptp_input(self):
        from qopcoh.channel import ChoiState

        lopsided = QuantumOperation.from_choi(ChoiState(np.diag([1.0, 0, 0, 0]), 2))
        with pytest.raises(InputNotCPTPError):
            check_cptp_preservation(lopsided)

    def test_max_coherent_operation_is_rejected_as_input(self):
        # its Choi fails the output-marginal half of the CPTP test, so the
        # precondition gate fires; the dephased image itself is CPTP
        op = max_coherent_op()
        with pytest.raises(InputNotCPTPError):
            check_cptp_preservation(op)
        dephased = apply(phase_out(2), op)
        assert is_cptp(dephased.choi).ok


class TestSamplingAndClosure:
    def test_samplers_produce_verified_members(self):
        rng = np.random.default_rng(32)
        for name in CLASS_NAMES:
            for _ in range(5):
                member = sample_class_member(name, 2, rng)
                rep = classify(member)
                assert {"miso": rep.in_miso, "miso_star": rep.in_miso_star, "diso": rep.in_diso}[name]

    def test_sampler_checks_its_one_draw(self, monkeypatch):
        # every construction is an exact member, so one draw is made; a
        # classifier that rejects it makes the sampler raise, not retry
        calls = []

        def nothing(s):
            calls.append(s)
            return ClassificationReport(False, False, False, 1.0, 1.0, 1.0)

        monkeypatch.setattr(superop, "classify", nothing)
        for name in CLASS_NAMES:
            calls.clear()
            with pytest.raises(GeneratorExhaustedError, match=name):
                sample_class_member(name, 2, np.random.default_rng(36))
            assert len(calls) == 1

    def test_closure_harness_takes_class_names_only(self):
        for name in ("MISO*", "miso-star", "MISO", "DISO"):
            with pytest.raises(ValueError, match="unknown class"):
                closure_harness(name, 1, 0)

    def test_closure_small_run(self):
        for name in CLASS_NAMES:
            rep = closure_harness(name, 15, seed=33)
            assert rep.ok, f"{name}: {rep.violations}"
            assert rep.intersection_consistent

    def test_closure_rejects_fewer_than_one_sample(self):
        # with no pairs the harness would pass without checking anything
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                closure_harness("miso", samples, seed=33)

    def test_report_fields_follow_class_names(self):
        # sampling and closure read in_{name} and {name}_residual off the report
        fields = [f"in_{name}" for name in CLASS_NAMES] + [f"{name}_residual" for name in CLASS_NAMES]
        assert list(vars(classify(phase_out(2)))) == fields

    def test_random_sandwich_checks_its_dimension(self):
        for d in (1, 0, -2):
            with pytest.raises(DimensionMismatchError, match=f"d >= 2, got d={d}$"):
                random_sandwich(d, 0)

    def test_intersection_check_can_fail(self, monkeypatch):
        # a classifier that puts everything in all three classes agrees with
        # its own conjunction, but not with the commutation form M T = T M
        def everything(s):
            return ClassificationReport(True, True, True, 0.0, 0.0, 0.0)

        monkeypatch.setattr(superop, "classify", everything)
        rep = closure_harness("miso", 3, seed=35)
        assert not rep.intersection_consistent

    def test_incoherent_cptp_sandwich_members_are_miso(self):
        rng = np.random.default_rng(34)
        s = Superoperation.from_sandwich(
            random_incoherent_cptp(2, rng), random_incoherent_cptp(2, rng)
        )
        assert classify(s).in_miso
