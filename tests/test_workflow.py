"""Every step of the CI workflow reaches bash whole: each `run:` is a
literal block scalar (a plain value ends at its first ` #`, which YAML
reads as a comment), each command passes `bash -n`, and each name a step
imports from `tests/` exists.  Every step is bounded in time, so a hung
one cannot hold the job until the runner's own limit.  Read as text, since
CI installs only pytest."""

import importlib
import re
import subprocess
import textwrap
from itertools import takewhile
from pathlib import Path

ROOT = Path(__file__).parent.parent


def run_steps(text):
    """(name, block, command) per `run:` key.  A plain value is read up to
    its comment, as YAML reads it; a step with no name is named by its
    command's first line."""
    steps, name, lines, i = [], None, text.splitlines(), 0
    while i < len(lines):
        m = re.match(r"( *)(- )?([\w-]+): ?(.*)", lines[i])
        i += 1
        if m and (m[2] or m[3] == "name"):
            name = m[4] if m[3] == "name" else None
        if not m or m[3] != "run":
            continue
        block, command = re.fullmatch(r"\|[-+]?", m[4]) is not None, re.split(r"\s#", m[4])[0] + "\n"
        if block:
            column = len(m[1] + (m[2] or ""))
            body = list(takewhile(lambda line: line[: column + 1].isspace() or not line.strip(), lines[i:]))
            i += len(body)
            command = textwrap.dedent("\n".join(body)).strip("\n") + "\n"
        steps.append((name or command.splitlines()[0], block, command))
    return steps


def step_blocks(text):
    """The text of each step of the job's `steps:` list, from its `- `
    line up to the next one's."""
    lines = text.splitlines()
    first = [line.strip() for line in lines].index("steps:") + 1
    dash, blocks = re.match(r" *- ", lines[first])[0], []
    for line in lines[first:]:
        if line.startswith(dash):
            blocks.append([])
        blocks[-1].append(line)
    return ["\n".join(block) for block in blocks]


WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
STEPS = run_steps(WORKFLOW)


def test_every_run_is_a_literal_block_scalar():
    assert len(STEPS) >= 10
    assert [name for name, block, _ in STEPS if not block] == []


def test_every_step_command_passes_bash_syntax_check():
    checked = {name: subprocess.run(["bash", "-n"], input=command, capture_output=True, text=True)
               for name, _, command in STEPS}
    assert {name: proc.stderr for name, proc in checked.items() if proc.returncode} == {}


def test_every_name_a_step_imports_from_tests_exists():
    imports = [
        (name, module, attr)
        for name, _, command in STEPS
        for module, attrs in re.findall(r"from (\w+) import ([\w, ]+)", command)
        if (ROOT / "tests" / f"{module}.py").is_file()
        for attr in re.findall(r"\w+", attrs)
    ]
    assert imports, "no step imports from tests/, so the check read nothing"
    assert [i for i in imports if not hasattr(importlib.import_module(i[1]), i[2])] == []


def test_every_step_is_bounded_in_time():
    # by the step's timeout-minutes, or by a command that bounds itself:
    # `timeout N`, or perfbench/run.py, whose rounds stop at its deadline
    def bounded(block):
        if re.search(r"^ *(- )?timeout-minutes: *[1-9]\d* *$", block, re.M):
            return True
        commands = [command.splitlines()[0] for _, _, command in run_steps(block)]
        return bool(commands) and all(
            re.search(r"(^| )timeout \d+ ", line) or line.startswith("python perfbench/run.py ")
            for line in commands
        )

    blocks = step_blocks(WORKFLOW)
    assert len(blocks) >= len(STEPS) + 2  # checkout and setup-python run no command
    assert [block.splitlines()[0] for block in blocks if not bounded(block)] == []
