"""README's quick start, run line by line through ``cli.main`` (no subprocess),
so a README command that drifts from the CLI fails here."""
import json
import pathlib
import re
import shlex

import pytest

from stressmon import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start(text):
    """The lines of the ```sh block under "A 2-user day, end to end", with
    continuation lines joined."""
    section = text.split("## A 2-user day, end to end\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


def listed_outputs(text):
    """Each command's outputs: the backticked names in the writes column of
    the table headed ``| command | reads | writes |``."""
    table = text.split("| command | reads | writes |\n|---|---|---|\n", 1)[1]
    outputs = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        command, _, writes = (cell.strip() for cell in line.strip("|").split("|"))
        outputs[command.strip("`")] = re.findall(r"`([^`]+)`", writes)
    return outputs


def test_quick_start_writes_the_listed_outputs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    outputs = listed_outputs(text)
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in quick_start(text):
        words = shlex.split(line)
        if words[0] == "export":
            continue
        if words[0] == "echo":
            assert words[2] == ">" and len(words) == 4, line
            json.loads(words[1])
            pathlib.Path(words[3]).write_text(words[1] + "\n", encoding="utf-8")
        elif words[:3] == ["python3", "-m", "stressmon.cli"]:
            command = words[3]
            assert cli.main(words[3:]) == 0, line
            out = pathlib.Path(words[words.index("--out") + 1])
            out_dir = out.parent if out.suffix else out
            for name in outputs[command] + ["manifest.json"]:
                assert (out_dir / name).is_file(), f"{command}: no {name}"
            ran.append(command)
        else:
            pytest.fail(f"unexpected quick-start line: {line}")
    assert sorted(ran) == sorted(outputs)
