"""The README's examples and pointers: every command line in its code blocks parses, and every config,
script, benchmark record and test that it names exists."""

import re
import shlex
from pathlib import Path

import pytest

from logdet_equiv import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = "".join(re.findall(r"^```[^\n]*\n(.*?)^```", README, flags=re.M | re.S))
COMMANDS = re.findall(r"^logdet-equiv (.+)$", FENCED, flags=re.M)
SCRIPTS = re.findall(r"^python3 (scripts/\S+)", FENCED, flags=re.M)
FILES = sorted(set(re.findall(r"\bconfigs/[\w.-]+\.json|\bBENCH_\w+\.json", README)))
TESTS = sorted(set(re.findall(r"\b(tests/\w+\.py)::(\w+)", README)))


def test_the_readme_has_examples_and_pointers_to_check():
    # A pattern that matched nothing would leave every check below vacuous.
    assert COMMANDS and SCRIPTS and FILES and TESTS


@pytest.mark.parametrize("command", COMMANDS)
def test_every_example_command_line_parses(command, capsys):
    try:
        cli.build_parser().parse_args(shlex.split(command))
    except SystemExit as exc:
        pytest.fail(f"logdet-equiv {command} exits {exc.code}: {capsys.readouterr().err}")


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_example_script_exists(script):
    assert (ROOT / script).is_file()


@pytest.mark.parametrize("name", FILES)
def test_every_named_config_and_benchmark_record_exists(name):
    assert (ROOT / name).is_file()


@pytest.mark.parametrize("path, name", TESTS)
def test_every_named_test_exists(path, name):
    assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), flags=re.M)
