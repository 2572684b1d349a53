"""Reference outputs from an independent interpreter.

``golden.json`` holds, for the registered inputs of each program
(``workloads.GOLDEN_INPUTS``), the output and return value produced by
the *step* interpreter (``Interpreter(compiled=False)``, what
``REPRO_INTERP=step`` selects), and its guest instruction count for
information.  Set-up runs the fast closure-compiled interpreter on the
same inputs and compares outputs and return values: the reference every timed op is checked against comes from the
fast path, so the fast path itself has to be checked against something
it did not produce.

    python3 perfbench/golden.py --write     # regenerate golden.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def _run(program: str, args, compiled: bool) -> Dict[str, object]:
    from repro.frontend.lower import compile_minic
    from repro.interp.interpreter import Interpreter
    from repro.workloads import BY_NAME

    module = compile_minic(BY_NAME[program].source, program)
    interp = Interpreter(module, compiled=compiled)
    rv = interp.run("main", tuple(args))
    return {"args": list(args), "output": list(interp.output),
            "return_value": rv, "guest_instrs": interp.steps}


def check(programs: Iterable[str],
          path: Optional[Path] = None) -> List[str]:
    """Run the fast interpreter on the registered inputs of ``programs``;
    returns one line per mismatch with ``golden.json``."""
    golden = json.loads((path or GOLDEN_PATH).read_text())
    problems = []
    for program in programs:
        want = golden[program]
        got = _run(program, want["args"], compiled=True)
        # guest_instrs is in the file as information only: a code
        # generator that interprets less must not fail the check.
        for key in ("output", "return_value"):
            if got[key] != want[key]:
                problems.append(
                    f"golden: {program}{tuple(want['args'])} {key} differs "
                    f"from the step interpreter's")
    return problems


def main(argv: List[str]) -> int:
    sys.path.insert(0, str(GOLDEN_PATH.parent.parent / "src"))
    sys.path.insert(0, str(GOLDEN_PATH.parent))
    from workloads import GOLDEN_INPUTS

    if "--write" not in argv:
        problems = check(GOLDEN_INPUTS)
        print("\n".join(problems) or "golden: ok")
        return 1 if problems else 0
    data = {program: _run(program, args, compiled=False)
            for program, args in GOLDEN_INPUTS.items()}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
