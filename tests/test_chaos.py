"""Chaos-campaign tests: randomized (but seeded) fault storms.

The fast tests pin down plan generation; the actual multi-round
campaign runs under ``-m slow`` like the other long smokes.
"""

import random

import pytest

from repro.faultinject import clear_plan
from repro.faultinject.chaos import (
    SITE_ACTIONS,
    Answer,
    ChaosRound,
    build_chaos_plan,
    check_answer,
    run_chaos,
    run_serve_kill_chaos,
)
from repro.rolag.config import RolagConfig

pytestmark = pytest.mark.fault


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


class TestChaosPlans:
    def test_plan_generation_is_seeded(self):
        first = build_chaos_plan(random.Random(7), job_count=10)
        again = build_chaos_plan(random.Random(7), job_count=10)
        assert first.spec_string() == again.spec_string()

    def test_plans_stay_on_known_sites(self):
        sites = {site for site, _ in SITE_ACTIONS}
        for seed in range(20):
            plan = build_chaos_plan(random.Random(seed), job_count=10)
            for spec in plan.specs:
                assert spec.site in sites
                # `abort` would os._exit the campaign process on the
                # serial path; the chaos menu must never include it.
                assert spec.action != "abort"

    def test_ir_faults_adds_corrupt_ir_at_every_pass_exit(self):
        plan = build_chaos_plan(
            random.Random(3), job_count=8, ir_faults=True
        )
        ir_specs = {
            spec.site: spec.action
            for spec in plan.specs
            if spec.site.endswith(".exit")
        }
        assert ir_specs == {
            "pipeline.pass.exit": "corrupt-ir",
            "rolag.roll.exit": "corrupt-ir",
        }


IR = """
define i32 @f(i32 %n) {
entry:
  %a = add i32 %n, 1
  %b = add i32 %a, 2
  %c = add i32 %b, 3
  ret i32 %c
}
"""

#: ``IR`` miscompiled: returns n + 7 instead of n + 6.
WRONG_IR = IR.replace("%b, 3", "%b, 4")

CORRUPT_PLAN = "rolag.roll.exit:corrupt-ir@2"


def _answer(ok=True, error_kind=None, optimized_ir=IR):
    return Answer("f", IR, ok, error_kind, optimized_ir, "executed")


def _broken_oracle(*args, **kwargs):
    raise RuntimeError("evaluator exploded")


class TestCheckAnswer:
    """The one oracle policy every storm applies to every answer."""

    @pytest.mark.parametrize(
        "answer, validate, plan, oracle_raises, failed, wrong, violation",
        [
            pytest.param(_answer(), "safe", "", False, 0, 0, None, id="ok"),
            pytest.param(
                _answer(False, "crash"), "safe", "", False, 1, 0, None,
                id="degraded",
            ),
            pytest.param(
                _answer(False, "bogus"), "safe", "", False, 1, 0,
                "f: unknown error_kind 'bogus'", id="unknown-kind",
            ),
            pytest.param(
                _answer(False, "timeout", ""), "off", "", False, 1, 0,
                "f: degraded result lost the original text", id="lost-text",
            ),
            pytest.param(
                _answer(optimized_ir="  \n"), "off", "", False, 0, 0,
                "f: ok answer carries no IR", id="empty-ir",
            ),
            pytest.param(
                _answer(optimized_ir=WRONG_IR), "safe", CORRUPT_PLAN, False,
                0, 1, "f: emitted semantics-changing IR", id="wrong-safe",
            ),
            pytest.param(
                _answer(optimized_ir=WRONG_IR), "off", CORRUPT_PLAN, False,
                0, 1, None, id="wrong-off-corrupt-ir-injected",
            ),
            # Validation off but nothing injected: RoLAG itself was wrong.
            pytest.param(
                _answer(optimized_ir=WRONG_IR), "off", "", False, 0, 1,
                "f: emitted semantics-changing IR", id="wrong-off-unfaulted",
            ),
            pytest.param(
                _answer(), "off", CORRUPT_PLAN, True, 0, 0,
                "f: oracle error: RuntimeError: evaluator exploded",
                id="oracle-raises",
            ),
        ],
    )
    def test_policy(
        self, monkeypatch, answer, validate, plan, oracle_raises,
        failed, wrong, violation,
    ):
        if oracle_raises:
            monkeypatch.setattr(
                "repro.validation.evidence_check", _broken_oracle
            )
        entry = ChaosRound(plan, {"failed": 0, "wrong_outputs": 0})
        check_answer(answer, entry, RolagConfig(validate=validate))
        assert entry.counts == {"failed": failed, "wrong_outputs": wrong}
        if violation is None:
            assert entry.violations == []
        else:
            assert len(entry.violations) == 1, entry.violations
            assert entry.violations[0].startswith(violation)


@pytest.mark.slow
class TestChaosCampaign:
    def test_campaign_holds_invariants(self, tmp_path):
        report = run_chaos(
            seed=3,
            job_count=8,
            rounds=3,
            workers=2,
            deadline=5.0,
            base_dir=str(tmp_path),
        )
        assert len(report.rounds) == 3
        # Round 0 is fault-free and must be clean.
        assert report.rounds[0].counts["failed"] == 0
        assert report.ok, report.summary()
        assert "OK" in report.summary()

    @pytest.mark.guard
    def test_validated_ir_storm_commits_no_corruption(self, tmp_path):
        report = run_chaos(
            seed=3,
            job_count=4,
            rounds=3,
            workers=1,
            deadline=10.0,
            base_dir=str(tmp_path),
            validate="safe",
            ir_faults=True,
        )
        assert report.ok, report.summary()
        # Round 0 is fault-free: the gate must stay silent.
        assert report.rounds[0].counts["guard_failures"] == 0
        # The storm rounds actually exercised the gate...
        assert sum(r.counts["guard_failures"] for r in report.rounds) > 0
        # ...and nothing semantics-changing got through.
        assert all(r.counts["wrong_outputs"] == 0 for r in report.rounds)
        assert "guard rollbacks" in report.summary()

    @pytest.mark.guard
    def test_unvalidated_ir_storm_miscompiles(self, tmp_path):
        report = run_chaos(
            seed=3,
            job_count=4,
            rounds=3,
            workers=1,
            deadline=10.0,
            base_dir=str(tmp_path),
            validate="off",
            ir_faults=True,
        )
        # Wrong outputs are informational with the gate off: the same
        # storm the validated campaign survives provably miscompiles.
        assert report.ok, report.summary()
        assert sum(r.counts["wrong_outputs"] for r in report.rounds) >= 1

    def test_chaos_cli_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "chaos",
            "--seed", "5",
            "--count", "6",
            "--rounds", "2",
            "--workers", "2",
            "--base-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "chaos" in out

    def test_kill_storm_recovers_every_job(self, tmp_path):
        report = run_serve_kill_chaos(
            seed=0, job_count=12, kills=2, base_dir=str(tmp_path)
        )
        assert report.ok, report.summary()
        row = report.to_json()
        assert row["answered"] == row["jobs"] == 12
        assert row["kills"] == 2
        assert row["duplicate_executions"] == 0
        assert row["wrong_outputs"] == 0
        assert row["supervisor_exit"] == 0
