"""A small pass manager and the one pass boundary.

Every IR edit made on a live function -- each cleanup pass, the reroll
baseline, each RoLAG block decision -- crosses :func:`run_step`: a
deadline checkpoint, the ``SITE`` fault-injection site, the step, the
``SITE.exit`` IR site (so ``corrupt-ir`` storms reach the gate), then
either the validation gate's commit-or-rollback (a step that raises
rolls back too) or, ungated, an optional verify.  Ungated, a raising
step is wrapped in :class:`PassError` carrying the pass and function
names (``pass 'cse' failed on function 'foo': ...``).  Cooperative
deadline signals pass through unwrapped -- the driver classifies those
as timeouts, not crashes.  The gate (a ``repro.validation.Validator``)
is handed in by the caller: importing that package here would pull in
the difftest runner and with it the RoLAG pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..faultinject import DeadlineExceeded, checkpoint, fire, fire_ir
from ..ir.module import Function, Module
from ..ir.verifier import verify_function

if TYPE_CHECKING:  # pragma: no cover - typing only, see module docstring
    from ..validation.gate import Validator

FunctionPass = Callable[[Function], int]


class PassError(RuntimeError):
    """A transform pass failed, with pass + function context attached."""

    def __init__(
        self,
        pass_name: str,
        function_name: Optional[str],
        cause: BaseException,
    ) -> None:
        self.pass_name = pass_name
        self.function_name = function_name or "?"
        super().__init__(
            f"pass {pass_name!r} failed on function "
            f"{self.function_name!r}: {type(cause).__name__}: {cause}"
        )


def run_step(
    fn: Function,
    decision: str,
    step: Callable[[], object],
    gate: Optional["Validator"] = None,
    site: str = "pipeline.pass",
    pass_name: str = "",
    replay: Optional[Callable[[Function], object]] = None,
    verify: bool = False,
) -> Tuple[bool, object]:
    """Run ``step`` on ``fn`` across the pass boundary; returns
    ``(committed, value)``, with ``value`` ``None`` if the step raised.

    ``decision`` names the edit in guard reports and ``pass_name`` (or
    ``decision``) in a :class:`PassError`; a ``gate`` at level ``off``
    counts as none; ``replay`` feeds the gate's repro minimizer;
    ``verify`` verifies an ungated edit whose value is truthy.
    """
    if gate is not None and gate.level == "off":
        gate = None
    checkpoint(f"{decision} on @{fn.name}")
    snapshot = gate.begin(fn) if gate is not None else None
    try:
        fire(site)
        value = step()
        fire_ir(f"{site}.exit", fn)
        if gate is None and verify and value:
            verify_function(fn)
    except DeadlineExceeded:
        raise
    except Exception as error:
        if gate is not None:
            gate.rollback_exception(fn, snapshot, decision, error)
            return False, None
        if isinstance(error, PassError):
            raise
        raise PassError(pass_name or decision, fn.name, error) from error
    if gate is not None and gate.commit_or_rollback(
        fn, snapshot, decision, replay=replay
    ) is not None:
        return False, value
    return True, value


@dataclass
class PassManager:
    """Sequences function passes through :func:`run_step` (gated by
    ``validator``, else verified when ``verify``), with per-pass change
    accounting; a rolled-back pass counts no changes."""

    verify: bool = True
    passes: List[Tuple[str, FunctionPass]] = field(default_factory=list)
    changes: Dict[str, int] = field(default_factory=dict)
    validator: Optional["Validator"] = None

    def add(self, name: str, fn_pass: FunctionPass) -> "PassManager":
        """Append a named pass to the pipeline."""
        self.passes.append((name, fn_pass))
        return self

    def run_function(self, fn: Function) -> int:
        """Run the pipeline over one function; returns total changes."""
        total = 0
        for name, fn_pass in self.passes:
            committed, changed = run_step(
                fn, name, lambda: fn_pass(fn), self.validator,
                replay=fn_pass, verify=self.verify,
            )
            if committed:
                self.changes[name] = self.changes.get(name, 0) + changed
                total += changed
        return total

    def run(self, module: Module) -> int:
        """Run the pipeline over every defined function."""
        total = 0
        for fn in module.functions:
            if not fn.is_declaration:
                total += self.run_function(fn)
        return total


def default_cleanup_pipeline() -> PassManager:
    """The -Os style cleanup pipeline: mem2reg + scalar cleanups."""
    from .constfold import fold_constants
    from .cse import eliminate_common_subexpressions
    from .dce import eliminate_dead_code
    from .ifconvert import convert_ifs
    from .mem2reg import promote_memory_to_registers
    from .simplifycfg import simplify_cfg

    pm = PassManager()
    pm.add("mem2reg", promote_memory_to_registers)
    pm.add("constfold", fold_constants)
    pm.add("cse", eliminate_common_subexpressions)
    pm.add("dce", eliminate_dead_code)
    pm.add("simplifycfg", simplify_cfg)
    pm.add("ifconvert", convert_ifs)
    pm.add("simplifycfg2", simplify_cfg)
    pm.add("constfold2", fold_constants)
    pm.add("cse2", eliminate_common_subexpressions)
    pm.add("dce2", eliminate_dead_code)
    return pm
