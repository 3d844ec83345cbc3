"""Shared fixtures.

``stamp_checker`` audits the three shortcuts mutation stamps allow
(see :class:`repro.ir.module.Function`).  An edit that failed to move
a stamp -- a gap in the stamping, or code that bypasses the IR's
self-stamping lists -- would let a stale verify, a stale
``changed() == False`` or a stale observation decide a verdict,
so a suite that uses the fixture holds every shortcut taken while it
runs to the slow answer:

* a skipped verify: the function prints as it did when the verifier
  passed it at that stamp;
* a ``changed() == False`` from the stamps: the structural diff agrees;
* an observation-memo hit: the module prints as it did when the entry
  was stored, and a fresh observation equals the memoized one under
  the backend-parity rule.

Violations are collected, not raised where they happen (product code
may catch exceptions), and fail the test at teardown.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.difftest import runner
from repro.difftest.oracle import observe_call
from repro.faultinject import active_plan
from repro.ir import print_function, print_module, verifier
from repro.ir.snapshot import FunctionSnapshot


def _printed(printer, ir) -> Optional[str]:
    """``printer(ir)``, or ``None`` for IR too corrupt to print."""
    try:
        return printer(ir)
    except Exception:
        return None


class StampChecker:
    """Counts and audits every stamp shortcut (see the module docstring)."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.verify_executed = 0
        self.verify_skipped = 0
        self.changed_fast = 0
        self.changed_diffed = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self._verified: Dict[int, str] = {}
        self._stored: Dict[tuple, str] = {}

    def install(self, monkeypatch) -> None:
        verified_at_stamp = verifier._verified_at_stamp
        stamps_unchanged = FunctionSnapshot._stamps_unchanged
        memo_observe = runner.ObservationMemo.observe

        def audited_verified(fn):
            skip = verified_at_stamp(fn)
            text = _printed(print_function, fn)
            if not skip:
                # The check runs on exactly this state; only a pass
                # records the stamp, so only then can a skip follow.
                self.verify_executed += 1
                self._verified[fn.stamp] = text
            else:
                self.verify_skipped += 1
                if self._verified.get(fn.stamp, text) != text:
                    self.violations.append(
                        f"verify of @{fn.name} skipped at stamp {fn.stamp}, "
                        "but the function changed since it was verified"
                    )
            return skip

        def audited_unchanged(snapshot):
            unchanged = stamps_unchanged(snapshot)
            if unchanged:
                self.changed_fast += 1
                if snapshot._diff():
                    self.violations.append(
                        f"snapshot of @{snapshot.fn.name}: stamps say "
                        "unchanged, the structural diff says changed"
                    )
            else:
                self.changed_diffed += 1
            return unchanged

        def audited_observe(memo, module, fn_name, vector, *, step_limit,
                            evaluator, program):
            key = memo.key(module, fn_name, vector, evaluator)
            hit = memo.answer(key, step_limit) is not None
            text = _printed(print_module, module)
            observation = memo_observe(
                memo, module, fn_name, vector, step_limit=step_limit,
                evaluator=evaluator, program=program,
            )
            if not hit:
                self.memo_misses += 1
                self._stored.setdefault(key, text)
                return observation
            self.memo_hits += 1
            if self._stored.get(key, text) != text:
                self.violations.append(
                    f"memo hit for @{fn_name} at {key[0]}, but the module "
                    "changed since the entry was stored"
                )
            with active_plan(None):  # leave fault-site hit counts alone
                fresh = observe_call(
                    module, fn_name, vector, step_limit=step_limit,
                    evaluator=evaluator,
                )
            diff = [
                name for name, same in runner._PARITY_FIELDS
                if not same(getattr(fresh, name), getattr(observation, name))
            ]
            if diff:
                self.violations.append(
                    f"memo hit for @{fn_name} on {vector.describe()} "
                    f"differs from a fresh run in {', '.join(diff)}"
                )
            return observation

        monkeypatch.setattr(verifier, "_verified_at_stamp", audited_verified)
        monkeypatch.setattr(
            FunctionSnapshot, "_stamps_unchanged", audited_unchanged
        )
        monkeypatch.setattr(runner.ObservationMemo, "observe", audited_observe)


@pytest.fixture
def stamp_checker(monkeypatch):
    """The :class:`StampChecker` of this test; fails it at teardown on
    any violation."""
    checker = StampChecker()
    checker.install(monkeypatch)
    yield checker
    assert not checker.violations, "\n".join(checker.violations)
