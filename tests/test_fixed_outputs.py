import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fixed_outputs.py"
spec = importlib.util.spec_from_file_location("fixed_outputs", SCRIPT)
fixed_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fixed_outputs)


def test_scalar_stable_outputs_repeat_and_do_not_name_their_directory(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert fixed_outputs.main([str(first), "scalar-stable"]) == 0
    assert fixed_outputs.main([str(second), "scalar-stable"]) == 0
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    # only the runs on scalar-stable, each in its own directory
    assert {p.parts[0] for p in files if len(p.parts) > 1} == {
        "certify-scalar-stable", "no-located-point", "tail-certificate", "simulate-scalar-stable"}
    for p in files:
        text = (first / p).read_text()
        assert str(tmp_path) not in text
        assert text == (second / p).read_text()
    report = (first / "certify-scalar-stable" / "certify-scalar-stable.txt").read_text()
    assert "config.out = <OUTDIR>/certify-scalar-stable\n" in report
    runs = (first / "runs.txt").read_text()
    codes = dict(re.findall(r"^## (\S+)\n.*\nexit (\d+)$", runs, flags=re.M))
    assert codes == {"certify-scalar-stable": "0", "no-located-point": "2", "tail-certificate": "0",
                     "simulate-scalar-stable": "0"}


def test_refuses_an_unknown_benchmark_and_a_used_directory(tmp_path, capsys):
    assert fixed_outputs.main([str(tmp_path / "out"), "no-such-benchmark"]) == 2
    (tmp_path / "used").mkdir()
    (tmp_path / "used" / "file").write_text("")
    assert fixed_outputs.main([str(tmp_path / "used"), "scalar-stable"]) == 2
    assert "not empty" in capsys.readouterr().err
