"""Re-run the mutations that show the oracle and check tests can fail.

Each entry of MUTATIONS names a file under src/, an exact text that occurs
there once, the text that replaces it, and the tests that must fail once it
is replaced.  For each entry the script copies src/ and tests/ into a
temporary directory, applies the mutation to the copy, runs the named tests
against the copy with pytest and reports the mutation as killed (a named
test failed) or survived (they all passed).

A mutation is killed only when pytest reports a failed test (exit 1); an
old text that no longer occurs exactly once reports STALE, and any other
pytest outcome ERROR.  Exit code: 0 when every mutation is killed, 1
otherwise, 2 when the named tests fail on the unmutated copy or the copy
does not import.

Needs pytest and hypothesis, like the tests themselves; it is not part of
the tier-1 suite (each entry runs its tests in a fresh interpreter).

Usage:
    python3 scripts/mutation_check.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple


MUTATIONS = (
    Mutation(
        "series-measure-check-deleted",
        "src/superharm/operators.py",
        "            if cur >= prev:\n"
        "                raise FiltrationError(\n"
        "                    f\"series term measure went {prev} -> {cur}; t2 must shrink it\"\n"
        "                )\n",
        "",
        ("tests/test_operators.py::test_xu_solve_filtration_violation",
         "tests/test_operators.py::test_t_k1k2_rejects_a_raising_t2"),
    ),
    Mutation(
        "series-annihilation-check-deleted",
        "src/superharm/operators.py",
        "        if not delta.apply(total).is_zero():\n"
        "            raise FiltrationError(\"xu_solve output not annihilated; bad seeds\")\n",
        "",
        ("tests/test_operators.py::test_xu_solve_rejects_non_kernel_seed",),
    ),
    Mutation(
        "series-right-inverse-check-deleted",
        "src/superharm/operators.py",
        "            if t1.apply(v) != w:\n"
        "                raise FiltrationError(\"integration is not a right inverse of t1 here\")\n",
        "",
        ("tests/test_operators.py::test_xu_solve_checks_the_integration",),
    ),
    Mutation(
        "nullspace-inexact-division",
        "src/superharm/linalg.py",
        "v[pc] = u // pv if u % pv == 0 else Fraction(u, pv)",
        "v[pc] = u / pv",
        ("tests/test_linalg.py::test_nullspace_matches_fraction_oracle",
         "tests/test_exact_coefficients.py::test_no_float_coefficients"),
    ),
    Mutation(
        "disjoint-clifford-sign-plus-one",
        "src/superharm/operators.py",
        "return [(-1 if len(dword) * len(mword) % 2 else 1, mword, dword)]",
        "return [(1, mword, dword)]",
        ("tests/test_operators.py::test_compose_matches_full_expansion_oracle",),
    ),
    Mutation(
        "add-product-drops-leading-term",
        "src/superharm/operators.py",
        "ferm_terms if i or leading else ferm_terms[1:]",
        "ferm_terms if i else ferm_terms[1:]",
        ("tests/test_operators.py::test_compose_matches_full_expansion_oracle",),
    ),
    Mutation(
        "act-skips-the-sort",
        "src/superharm/operators.py",
        "bos = tuple(sorted(exps.items()) if mbos else exps.items())",
        "bos = tuple(exps.items())",
        ("tests/test_operators.py::test_apply_matches_derive_oracle",),
    ),
    Mutation(
        # the echelon form of the earlier shared row index: each operator's
        # equations replace, rather than join, those of the operators before
        "joint-kernel-forgets-earlier-operators",
        "src/superharm/linalg.py",
        "        echelon: dict[int, Sequence[int]] = {}\n"
        "        for op in ops:\n",
        "        for op in ops:\n"
        "            echelon: dict[int, Sequence[int]] = {}\n",
        ("tests/test_linalg.py::test_joint_kernel_matches_transposed_matrix_oracle",),
    ),
    Mutation(
        # the last member to hold a monomial owns it: still an independence
        # proof (a triangular one), but not the witness its tests define
        "own-monomial-witness-forgets-shared-monomials",
        "src/superharm/linalg.py",
        "owner[m] = i if m not in owner else -1",
        "owner[m] = i",
        ("tests/test_linalg.py::test_own_monomial_witness_proves_independence",),
    ),
    Mutation(
        "span-ranks-restarts-the-echelon-per-family",
        "src/superharm/linalg.py",
        "    for family in families:\n"
        "        _echelon_add(echelon, rows[start:start + len(family)])\n",
        "    for family in families:\n"
        "        echelon = {}\n"
        "        _echelon_add(echelon, rows[start:start + len(family)])\n",
        ("tests/test_linalg.py::test_span_ranks_match_oracle_prefix_ranks",),
    ),
    Mutation(
        # the table's action scales its stored image dicts by the input's
        # coefficients; this drops them
        "eta-image-table-drops-the-input-coefficient",
        "src/superharm/operators.py",
        "acc[u] = acc.get(u, 0) + c * d",
        "acc[u] = acc.get(u, 0) + d",
        ("tests/test_linalg.py::test_eta_image_table_matches_oracle_apply",),
    ),
    Mutation(
        # `images` passes c = 1, so only `apply` on a scaled term sees it
        "add-image-ignores-the-coefficient",
        "src/superharm/operators.py",
        "acc[mono] = acc.get(mono, 0) + c * atom.coeff * k",
        "acc[mono] = acc.get(mono, 0) + atom.coeff * k",
        ("tests/test_operators.py::test_apply_matches_derive_oracle",),
    ),
    Mutation(
        "harmonic-annihilation-raise-deleted",
        "src/superharm/harmonic.py",
        "            raise InternalError(\"harmonic basis vector not annihilated: \""
        " + v.render())\n",
        "            pass\n",
        ("tests/test_harmonic.py::"
         "test_harmonic_check_rejects_a_vector_outside_the_kernel",),
    ),
    Mutation(
        # the derivative monomial loses its fermions: th1*d_vt1 then claims
        # th1's step alone as its shift, and its images land elsewhere
        "weight-shift-ignores-fermionic-derivatives",
        "src/superharm/harmonic.py",
        "weight(SuperMonomial(w.dbos, w.dferm))",
        "weight(SuperMonomial(w.dbos, ()))",
        ("tests/test_linalg.py::test_weight_shift_proves_the_weight_block_rule",),
    ),
    Mutation(
        # an off-diagonal atom such as x1*d_y1 is skipped, so the table
        # misses the weight it moves
        "cartan-table-accepts-off-diagonal-atoms",
        "src/superharm/harmonic.py",
        "            elif w not in euler:\n"
        "                raise InternalError(f\"Cartan atom {w.render()} is not constant or v*d_v\")\n",
        "            elif w not in euler:\n"
        "                continue\n",
        ("tests/test_harmonic.py::test_an_off_diagonal_cartan_atom_is_an_internal_error",),
    ),
    Mutation(
        "monomial-weight-skips-the-fermion-steps",
        "src/superharm/harmonic.py",
        "    for v in mono.ferm:\n"
        "        i, s = steps[v]\n"
        "        acc[i] += s\n",
        "",
        ("tests/test_harmonic.py::test_monomial_weight_matches_weight_of",),
    ),
    Mutation(
        # a weight that no summand vector reaches holds only window
        # monomials, and skipping it leaves them unspanned yet unchecked
        "decomposition-skips-window-only-weights",
        "src/superharm/harmonic.py",
        "    for *hs, monos, sub, hv in groups.values():\n",
        "    for *hs, monos, sub, hv in groups.values():\n"
        "        if not any(hs):\n"
        "            continue\n",
        ("tests/test_harmonic.py::"
         "test_a_weight_only_the_window_reaches_counts_against_spanning",),
    ),
    Mutation(
        # the chain probes two steps down, so it stops one slice early
        # wherever the slice two steps below is empty
        "chain-probe-skips-a-slice",
        "src/superharm/harmonic.py",
        "_step_label(scheme, label, i_max + 1)",
        "_step_label(scheme, label, i_max + 2)",
        ("tests/test_harmonic.py::test_chain_length_is_min_l_lp_on_gl_natural",
         "tests/test_harmonic.py::test_chain_length_is_half_k_on_natural_osp"),
    ),
    Mutation(
        # the dimension test alone passes a formula basis of the kernel's
        # dimension whose span is another one
        "window-span-test-forgets-containment",
        "src/superharm/harmonic.py",
        "contained = contained and rank_xu == rank_both",
        "contained = True",
        ("tests/test_harmonic.py::"
         "test_a_formula_basis_of_the_kernel_dimension_but_another_span_fails",),
    ),
    Mutation(
        "osp-union-never-raises-x0",
        "src/superharm/algebra.py",
        "    for e0 in range(cap + 1 if has_x0 else 1):\n",
        "    for e0 in range(1):\n",
        ("tests/test_algebra.py::test_slice_matches_filter_oracle",
         "tests/test_algebra.py::test_osp_natural_slice_sizes_match_closed_form"),
    ),
    Mutation(
        "bidegree-slice-ignores-swapped-ys",
        "src/superharm/algebra.py",
        "for d in range(cap + 1 if neg_y else 1):",
        "for d in range(1):",
        ("tests/test_algebra.py::test_slice_matches_filter_oracle",),
    ),
    Mutation(
        # j = 1 on the vt indices too: (th_r, vt_s) loses its symmetric sign
        "form-sign-ignores-vt",
        "src/superharm/representations.py",
        "    if (a > 2 * n + m) != (b > 2 * n + m):\n"
        "        sign = -sign\n",
        "",
        ("tests/test_representations.py::test_osp_basis_is_independent",
         "tests/test_representations.py::"
         "test_osp_membership_matches_eta_stabilizer"),
    ),
    Mutation(
        "partner-offsets-fermions-by-n",
        "src/superharm/representations.py",
        "    return a + m if a <= 2 * n + m else a - m\n",
        "    return a + n if a <= 2 * n + m else a - n\n",
        ("tests/test_representations.py::test_gl_natural_units",
         "tests/test_representations.py::"
         "test_osp_membership_matches_eta_stabilizer"),
    ),
    Mutation(
        # `_operator` still proves eta's atoms agree, but not that they keep
        # weights
        "decomposition-eta-weight-guard-deleted",
        "src/superharm/harmonic.py",
        "        if any(_weight_shift(ops, scheme)):\n"
        "            raise InternalError(f\"{name.lower()} moves weights\")\n",
        "        _weight_shift(ops, scheme)\n",
        ("tests/test_harmonic.py::"
         "test_decomposition_requires_an_eta_that_keeps_weights",),
    ),
    Mutation(
        # `_operator` hands out Delta and eta unproved, so an uneven Delta
        # reaches the weight-blocked solve
        "suite-operator-skips-the-shift-proof",
        "src/superharm/harmonic.py",
        "        if any(_weight_shift(ops, scheme)):\n",
        "        if False:\n",
        ("tests/test_cli.py::test_an_uneven_delta_exits_four",),
    ),
    Mutation(
        "weight-grouping-homogeneity-guard-deleted",
        "src/superharm/harmonic.py",
        "        if len(wts) != 1:\n"
        "            raise InternalError(\"expected a weight-homogeneous vector: \""
        " + p.render())\n",
        "",
        ("tests/test_harmonic.py::"
         "test_decomposition_rejects_a_mixed_weight_summand_vector",),
    ),
    Mutation(
        # the last variable gets the most significant digit of the key
        "slice-key-reads-the-variables-backwards",
        "src/superharm/algebra.py",
        "for i, v in enumerate(reversed(variables))}",
        "for i, v in enumerate(variables)}",
        ("tests/test_algebra.py::test_slice_basis_is_in_sort_key_order",
         "tests/test_algebra.py::test_slice_matches_filter_oracle"),
    ),
    Mutation(
        # (b, a) is skipped without checking that [b, a] = -s [a, b]
        "homomorphism-skips-every-mirrored-pair",
        "src/superharm/representations.py",
        "if br == (-first if s == 1 else first):",
        "if True:",
        ("tests/test_representations.py::test_homomorphism_failure_report",),
    ),
    Mutation(
        # (b, a) is compared with c instead of -s c when it is compared
        "mirrored-rhs-drops-the-sign",
        "src/superharm/representations.py",
        "rhs = -c if s == 1 else c",
        "rhs = c",
        ("tests/test_representations.py::test_homomorphism_failure_report",),
    ),
    Mutation(
        # the last even index counts as odd
        "unit-parity-table-uses-wrong-bound",
        "src/superharm/representations.py",
        "int((a > last_even) != (b > last_even))",
        "int((a >= last_even) != (b >= last_even))",
        ("tests/test_representations.py::"
         "test_bracket_matches_dense_supermatrix_oracle",),
    ),
    Mutation(
        # a fermionic bidegree with r >= s has no ladder powers, so nothing
        # else in the check loop looks at the harmonics found there
        "fermionic-ladder-skips-the-empty-piece-check",
        "src/superharm/harmonic.py",
        "        if vectors and not powers:\n"
        "            failures.append(f\"unexpected {kind} harmonics at {where}\")\n",
        "",
        ("tests/test_harmonic.py::"
         "test_identity_report_rejects_fermionic_harmonics_without_powers",),
    ),
    Mutation(
        # d_x0 d_x0 becomes d_x0 in the x0 ladder's Delta
        "atom-counts-a-repeated-derivative-once",
        "src/superharm/operators.py",
        "dbos[v] = dbos.get(v, 0) + 1",
        "dbos[v] = 1",
        ("tests/test_operators.py::test_odd_ladder_commutator_identity",
         "tests/test_harmonic.py::test_identity_report_passes"),
    ),
    Mutation(
        "super-commutator-drops-mirror-term",
        "src/superharm/operators.py",
        "            if not db.isdisjoint(ma):\n"
        "                _add_product(acc, wb, wa, base if pa and pb else -base, False)\n",
        "",
        ("tests/test_operators.py::test_commutator_matches_full_products",
         "tests/test_representations.py::test_homomorphism_all_variants"),
    ),
)


def occurrences(m: Mutation) -> int:
    return (ROOT / m.path).read_text(encoding="utf-8").count(m.old)


def run_tests(tests, mutation=None) -> int:
    """pytest's exit code for the tests, run on a copy of src/ and tests/
    with the mutation (if any) applied to the copy."""
    with tempfile.TemporaryDirectory(prefix="superharm-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if mutation is not None:
            target = work / mutation.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutation.old, mutation.new),
                              encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        probe = subprocess.run(
            [sys.executable, "-c", "import superharm; print(superharm.__file__)"],
            cwd=work, env=env, capture_output=True, text=True)
        if not probe.stdout.startswith(str(work)):
            print("superharm does not import from the copy: "
                  + (probe.stdout.strip() or probe.stderr.strip()), file=sys.stderr)
            sys.exit(2)
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=work, env=env, capture_output=True, text=True).returncode


def main() -> int:
    # a mutant counts as killed only if its tests pass without it
    named = sorted({t for m in MUTATIONS for t in m.tests})
    if run_tests(named) != 0:
        print("the named tests do not pass on the unmutated copy", file=sys.stderr)
        return 2
    bad = 0
    for m in MUTATIONS:
        if occurrences(m) != 1:
            outcome = "stale"
        else:
            code = run_tests(m.tests, m)
            # pytest exits 1 when a test failed; other codes are errors
            outcome = {0: "survived", 1: "killed"}.get(code, f"error {code}")
        bad += outcome != "killed"
        print(f"{outcome.upper():9s} {m.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
