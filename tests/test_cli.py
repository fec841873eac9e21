from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import gradualpi.cli as cli
from conftest import CORPUS, golden
from gradualpi.cli import main


def corpus(name: str) -> str:
    return str(CORPUS / name)


def run_cli(capsys, *argv, stdin: str = "") -> tuple[int, str, str]:
    code = None
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(list(argv))
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", corpus("client.gpi"))
    assert (code, out) == (0, "ok\n")


def test_check_rejection_exit_one(capsys):
    code, out, _ = run_cli(capsys, "check", corpus("malicious_printer_client.gpi"))
    assert code == 1
    assert "[t-in]" in out and "expected o(o()) ~ i(o())" in out


def test_check_static_flag(capsys):
    code, _, _ = run_cli(capsys, "check", corpus("printer_clients.gpi"), "--static")
    assert code == 0
    code, _, _ = run_cli(capsys, "check", corpus("client.gpi"), "--static")
    assert code == 1  # dyn is never equal to a concrete capability


def test_parse_error_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.gpi"
    bad.write_text("run run", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 3
    assert "parse error" in err and "1:5" in err


def test_usage_error_exit_four(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 4


def test_one_argument_parser_serves_every_call(capsys, monkeypatch):
    built = []
    init = cli._ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "gradualpi":  # the top-level parser, not a subcommand's
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counted)
    calls = [["check"], ["check", corpus("client.gpi")], ["run", corpus("race.gpi"), "--seed", "x"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "gradualpi", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in fresh] == [4, 0, 4]
    for _ in range(3):  # each call prints what it prints in a fresh process, whatever came before
        assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert len(built) <= 1 and cli._build_parser() is cli._build_parser()


def test_each_runtime_module_loads_on_the_first_run_that_needs_it():
    # `threadindex` serves sequential runs and `symmetry` exhaustive ones;
    # `check` and `compile` compile neither.
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import json, sys\n"
        "from gradualpi.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    main(argv)\n"
        "    print(*[m for m in ('gradualpi.threadindex', 'gradualpi.symmetry') if m in sys.modules], file=sys.stderr)\n"
    )
    client = corpus("client.gpi")
    calls = [["check", client], ["compile", client], ["run", client], ["run", client, "--mode", "exhaustive"]]
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.stderr.splitlines() == ["", "", "gradualpi.threadindex", "gradualpi.threadindex gradualpi.symmetry"]


def test_missing_file_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "check", "no/such/file.gpi")
    assert code == 4


def test_compile_client_golden(capsys):
    code, out, _ = run_cli(capsys, "compile", corpus("client.gpi"))
    assert code == 0
    assert out == golden("compile_client.txt")


def test_compile_agency_golden_with_sites(capsys):
    code, out, _ = run_cli(capsys, "compile", corpus("agency.gpi"), "--show-sites")
    assert code == 0
    assert out == golden("compile_agency.txt")


def test_compile_refuses_ill_typed_input(capsys):
    code, out, _ = run_cli(capsys, "compile", corpus("sneaky_client.gpi"))
    assert code == 1
    assert "t-out" in out


def test_compile_fully_static_is_identity_modulo_sugar(capsys):
    code, out, _ = run_cli(capsys, "compile", corpus("printer_clients.gpi"))
    assert code == 0
    assert out.strip() == "p!<j1>.p!<j2>.0"


def test_run_interactive_paper_example_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        corpus("client.gpi"),
        corpus("agency.gpi"),
        "--mode",
        "interactive",
        "--trace",
        stdin="2\n1\n1\n1\n1\n1\n",
    )
    assert code == 0
    assert out == golden("run_paper_example.txt")


def test_run_interactive_misuse_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        corpus("client.gpi"),
        corpus("misuse_agency.gpi"),
        corpus("stray_payer.gpi"),
        "--mode",
        "interactive",
        "--trace",
        stdin="1\n1\n2\n1\n",
    )
    assert code == 2
    assert out == golden("run_misuse.txt")


def test_run_interactive_refund_branch_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        corpus("client.gpi"),
        corpus("agency.gpi"),
        "--mode",
        "interactive",
        "--trace",
        stdin="1\n1\n1\n2\n1\n1\n",
    )
    assert code == 0
    assert out == golden("run_refund_branch.txt")
    assert "[c-solve: c-in-expand, c-in-succeed, c-in-succeed]" in out


def test_run_interactive_eof_aborts_with_usage_exit(capsys):
    code, _, err = run_cli(
        capsys, "run", corpus("client.gpi"), corpus("agency.gpi"), "--mode", "interactive", stdin=""
    )
    assert code == 4
    assert "aborted" in err


def test_run_interactive_reprompts_on_garbage(capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        corpus("client.gpi"),
        corpus("agency.gpi"),
        "--mode",
        "interactive",
        stdin="zap\n99\n2\n1\n1\n1\n1\n1\n",
    )
    assert code == 0
    assert "enter a number between" in err
    assert out.endswith("HALT: normal-stuck\n")


def test_run_exhaustive_golden(capsys):
    code, out, _ = run_cli(
        capsys, "run", corpus("client.gpi"), corpus("agency.gpi"), "--mode", "exhaustive", "--depth", "12"
    )
    assert code == 0
    assert out == golden("exhaustive_paper.txt")


def test_run_seeded_dyn_server_golden(capsys):
    code, out, _ = run_cli(capsys, "run", corpus("dyn_server.gpi"), "--mode", "seeded", "--seed", "3", "--trace")
    assert code == 0
    assert out == golden("run_dyn_server_seed3.txt")


def test_run_exhaustive_dyn_race_golden(capsys):
    code, out, _ = run_cli(capsys, "run", corpus("dyn_race.gpi"), "--mode", "exhaustive", "--depth", "40")
    assert code == 0
    assert out == golden("exhaustive_dyn_race.txt")


def test_run_exhaustive_hoist_server_golden(capsys):
    code, out, _ = run_cli(capsys, "run", corpus("hoist_server.gpi"), "--mode", "exhaustive", "--depth", "9")
    assert code == 5
    assert out == golden("exhaustive_hoist_server.txt")


def test_goldens_do_not_depend_on_hashes():
    # Cast terms hash by address, and names and strings by the hash seed:
    # fresh interpreters with different seeds print the same bytes.
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = {
        "run_dyn_server_seed3.txt": ("run", corpus("dyn_server.gpi"), "--mode", "seeded", "--seed", "3", "--trace"),
        "exhaustive_hoist_server.txt": ("run", corpus("hoist_server.gpi"), "--mode", "exhaustive", "--depth", "9"),
    }
    for name, argv in runs.items():
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "gradualpi", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                timeout=120,
            )
            assert (done.stdout, done.stderr) == (golden(name).encode(), b"")


def test_untraced_run_renders_no_step(capsys, monkeypatch):
    import gradualpi.runtime as runtime

    printed = []
    print_cast = runtime.print_cast
    monkeypatch.setattr(runtime, "print_cast", lambda p: printed.append(p) or print_cast(p))
    code, out, _ = run_cli(capsys, "run", corpus("dyn_server.gpi"), "--seed", "3")
    assert (code, out, len(printed)) == (0, "HALT: normal-stuck\n", 0)
    code, out, _ = run_cli(capsys, "run", corpus("dyn_server.gpi"), "--seed", "3", "--trace")
    assert (code, out) == (0, golden("run_dyn_server_seed3.txt"))
    assert printed


def test_untraced_run_records_no_step(capsys, monkeypatch):
    reports = []
    run = cli.run

    def recording(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run", recording)
    code, out, _ = run_cli(capsys, "run", corpus("dyn_server.gpi"), "--seed", "3")
    assert (code, out) == (0, golden("run_dyn_server_seed3.txt").splitlines(keepends=True)[-1])
    assert reports[0].outcomes[0].trace == ()


def test_seeded_run_neither_rescans_nor_rebuilds_per_step(capsys, monkeypatch):
    # The run keeps one live thread index; only `normalize` builds a configuration.
    import gradualpi.runtime as runtime

    calls = {"redex_plan": 0, "_rebuild": 0}
    for name in calls:

        def counting(*args, _name=name, _original=getattr(runtime, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(runtime, name, counting)
    code, out, _ = run_cli(capsys, "run", corpus("dyn_server.gpi"), "--seed", "3", "--trace")
    assert (code, out) == (0, golden("run_dyn_server_seed3.txt"))
    assert calls == {"redex_plan": 0, "_rebuild": 1}


def test_run_seeded_byte_identical(capsys):
    args = ("run", corpus("client.gpi"), corpus("agency.gpi"), "--seed", "3", "--trace")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 and out1 == out2


def test_run_seeded_without_trace_prints_only_halt(capsys):
    code, out, _ = run_cli(capsys, "run", corpus("empty.gpi"))
    assert code == 0
    assert out == "HALT: normal-stuck\n"


def test_run_max_steps_exit_five(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        corpus("printer_server.gpi"),
        corpus("printer_clients.gpi"),
        "--max-steps",
        "0",
    )
    assert code == 5
    assert out == "HALT: max-steps\n"


def test_negative_budget_is_usage_error(capsys):
    for flag, mode in (("--depth", "exhaustive"), ("--max-steps", "seeded")):
        for value in ("-1", "-3"):
            code, out, err = run_cli(capsys, "run", corpus("race.gpi"), "--mode", mode, flag, value)
            assert (code, out, err) == (4, "", f"gradualpi: argument {flag}: must not be negative: '{value}'\n")
        code, out, err = run_cli(capsys, "run", corpus("race.gpi"), "--mode", mode, flag, "x")
        assert (code, out, err) == (4, "", f"gradualpi: argument {flag}: invalid int value: 'x'\n")
        code, out, _ = run_cli(capsys, "run", corpus("race.gpi"), "--mode", mode, flag, "0")
        assert code == 5 and out.endswith(("HALT: depth-exceeded\n", "HALT: max-steps\n"))


def test_replica_whose_head_is_on_its_own_new_name_is_not_unfolded(capsys):
    # Each copy's `x` is fresh, so it never meets the free `x?().0`.
    for mode in (("--mode", "seeded"), ("--mode", "exhaustive", "--depth", "6")):
        code, out, _ = run_cli(capsys, "run", corpus("bound_head.gpi"), *mode)
        assert code == 0 and out.endswith("HALT: normal-stuck\n")


def test_run_composition_rejects_ill_typed_party(capsys):
    code, _, _ = run_cli(capsys, "run", corpus("client.gpi"), corpus("sneaky_client.gpi"))
    assert code == 1


def test_run_exhaustive_depth_exceeded_exit_five(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        corpus("printer_server.gpi"),
        corpus("printer_clients.gpi"),
        "--mode",
        "exhaustive",
        "--depth",
        "2",
    )
    assert code == 5
    assert "depth-exceeded" in out.splitlines()[0]
    assert "HALT: depth-exceeded" in out


def test_run_exhaustive_type_error_exit_two(capsys):
    parties = (corpus("client.gpi"), corpus("misuse_agency.gpi"), corpus("stray_payer.gpi"))
    code, out, _ = run_cli(capsys, "run", *parties, "--mode", "exhaustive", "--depth", "12")
    assert code == 2
    assert out.splitlines()[0] == "TERMINALS: normal-stuck type-error"


def test_invalid_utf8_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bytes.gpi"
    bad.write_bytes(b"run 0 \xff\xfe")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 3
    assert "UTF-8" in err


def test_prompts_go_to_stderr_trace_to_stdout(capsys):
    _, out, err = run_cli(
        capsys,
        "run",
        corpus("client.gpi"),
        corpus("agency.gpi"),
        "--mode",
        "interactive",
        "--trace",
        stdin="2\n1\n1\n1\n1\n1\n",
    )
    assert "choose a redex" in err
    assert "choose a redex" not in out
    assert out.startswith("#0 [choice: right]")


def _nested_par(k: int) -> str:
    """The printed form of `k` `|` nodes nested to the left."""
    return "(" * (k - 1) + "a!<>.0 | a!<>.0" + ") | a!<>.0" * (k - 1)


def test_ten_thousand_deep_or_wide_terms_pass_every_command(capsys, tmp_path):
    # Far past Python's recursion limit: every walk keeps its own stack.
    n = 10_000
    compiled = {
        "a!<>." * n + "0": "a!<>." * n + "0",
        " | ".join(["a!<>"] * n): " | ".join(["a!<>.0"] * n),
        " + ".join(["a!<>"] * n): " + ".join(["a!<>.0"] * n),
        "(" * n + "a!<>" + ")" * n: "a!<>.0",
        "(" * (n - 1) + "a!<>" + " | a!<>)" * (n - 1): _nested_par(n - 1),
    }
    path = tmp_path / "big.gpi"
    for proc, text in compiled.items():
        path.write_text(f"chan a : o();\nrun {proc}\n", encoding="utf-8")
        assert run_cli(capsys, "check", str(path)) == (0, "ok\n", "")
        assert run_cli(capsys, "compile", str(path)) == (0, text + "\n", "")
        seeded = run_cli(capsys, "run", str(path), "--mode", "seeded", "--max-steps", "3")
        assert seeded == (0, "HALT: normal-stuck\n", "")


def test_recursion_error_is_internal_error_exit_seventy(capsys, monkeypatch):
    def too_deep(env, proc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check", too_deep)
    for command in ("check", "run"):
        code, out, err = run_cli(capsys, command, corpus("client.gpi"))
        assert (code, out) == (70, "")
        assert err == "gradualpi: internal error: RecursionError: maximum recursion depth exceeded\n"


def test_wide_composition_compiles(capsys, tmp_path):
    # Wider than the recursion limit.
    for op in ("|", "+"):
        wide = tmp_path / "wide.gpi"
        wide.write_text("chan a : o();\nrun " + f" {op} ".join(["a!<>"] * 2000) + "\n", encoding="utf-8")
        assert run_cli(capsys, "check", str(wide)) == (0, "ok\n", "")
        code, out, err = run_cli(capsys, "compile", str(wide))
        assert (code, err) == (0, "")
        assert out == f" {op} ".join(["a!<>.0"] * 2000) + "\n"
    wide.write_text("chan a : o();\nrun " + " | ".join(["a!<>"] * 2000) + "\n", encoding="utf-8")
    assert run_cli(capsys, "run", str(wide), "--mode", "seeded") == (0, "HALT: normal-stuck\n", "")


def test_replicated_wide_composition_runs_seeded(capsys, tmp_path):
    # The replica's heads are collected from the whole of its `|` chain.
    wide = tmp_path / "wide.gpi"
    wide.write_text("chan a : dyn;\nrun !(" + " | ".join(["a!<>"] * 2000) + ") | a?().0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(wide), "--mode", "seeded", "--max-steps", "50")
    assert (code, out, err) == (5, "HALT: max-steps\n", "")


def test_deep_terms_run_exhaustive(capsys, tmp_path):
    # Cast terms are hash-consed, so a state hashes its threads in O(1),
    # however deep they are.
    path = tmp_path / "deep.gpi"
    path.write_text("chan a : o();\nrun " + "a!<>." * 10_000 + "0\n", encoding="utf-8")
    stuck = "TERMINALS: normal-stuck\n--- witness: normal-stuck\nHALT: normal-stuck\n"
    assert run_cli(capsys, "run", str(path), "--mode", "exhaustive", "--depth", "3") == (0, stuck, "")
    # A state expands each distinct move once, so a replica's 10,000 equal
    # outputs give one successor, not 10,000 equal ones.
    for width in (2000, 10_000):
        path.write_text("chan a : dyn;\nrun !(" + " | ".join(["a!<>"] * width) + ") | a?().0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path), "--mode", "exhaustive", "--depth", "3")
        assert (code, out.splitlines()[0], err) == (5, "TERMINALS: normal-stuck depth-exceeded", "")
        assert out.endswith("HALT: depth-exceeded\n")


def test_malformed_cast_is_internal_error_exit_seventy(capsys, monkeypatch):
    import gradualpi.runtime as runtime

    def broken(out):
        raise runtime.MalformedCastError("output subject cast does not end in an output capability")

    monkeypatch.setattr(runtime, "resolve_output_casts", broken)
    code, out, err = run_cli(capsys, "run", corpus("race.gpi"), "--trace")
    assert code == 70
    assert out == ""
    assert err == (
        "gradualpi: internal error: MalformedCastError: "
        "output subject cast does not end in an output capability\n"
    )


def _gradualpi(*argv: str, **kwargs) -> subprocess.Popen:
    """A CLI process whose stdout is block-buffered, as it is in a shell pipeline."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-m", "gradualpi", *argv], stderr=subprocess.PIPE, env=env, **kwargs)


def test_closed_stdout_exits_141_quietly(tmp_path):
    # About 137 kB of trace, more than a pipe holds: the reader closes while
    # the process is still writing.
    wide = tmp_path / "wide.gpi"
    wide.write_text("chan a : dyn;\nrun " + " | ".join(["a!<a>.0 | a?(x:dyn).0"] * 600) + "\n", encoding="utf-8")
    proc = _gradualpi("run", str(wide), "--trace", "--max-steps", "2000", stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"#0 [c-solve")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    # A few lines, still buffered when the command returns (the flush at
    # interpreter exit would fail): the read end is closed before the process starts.
    read, write = os.pipe()
    os.close(read)
    proc = _gradualpi("compile", corpus("client.gpi"), stdout=write)
    os.close(write)
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""


def test_documented_exit_codes_are_the_exit_constants():
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    docstring = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Exit codes:")[1].split("\n\n")[0]
    # A code opens the paragraph or follows a comma; numbers inside the parentheses are not codes.
    assert {int(code) for code in re.findall(r"(?:^\s*|,\s+)(\d+)\s", re.sub(r"\([^()]*\)", "", docstring))} == codes
    assert {int(code) for code in re.findall(r"`(\d+)`", paragraph)} == codes
