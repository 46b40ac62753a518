"""CLI subcommands, exit codes, and file-level workflows."""

import os
import select
import shlex
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pamenc import SimTrace, load_keys, load_phi
from pamenc.cli import (EXIT_BAD_COMBINATION, EXIT_MISSING_FILE, EXIT_RUNTIME,
                        build_parser, main)


@pytest.fixture()
def short_profile(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("start,end,theta_ref_deg,kp_ref\n0,2,5,6\n")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """keygen + fit + build-phi artifacts shared across CLI tests."""
    ws = tmp_path_factory.mktemp("cli")
    assert main(["keygen", "--bits", "64", "--seed", "2024",
                 "--out", str(ws / "key")]) == 0
    assert main(["fit", "--grid", "13", "--out", str(ws / "coeffs.csv")]) == 0
    assert main(["build-phi", "--coeffs", str(ws / "coeffs.csv"),
                 "--gains", "surrogate", "--out", str(ws / "phi.csv")]) == 0
    return ws


class TestArtifacts:
    def test_keygen_wrote_pair(self, workspace):
        pub = load_keys(workspace / "key.pub")
        sec = load_keys(workspace / "key.sec")
        assert pub.s is None and sec.s is not None
        assert pub.p == sec.p and pub.p.bit_length() == 64

    def test_phi_file_shape(self, workspace):
        phi = load_phi(workspace / "phi.csv")
        assert phi.shape == (5, 18)
        assert phi[0][4] == 1.0


class TestSimulate:
    def test_original_smoke(self, workspace, short_profile, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["simulate", "--mode", "original", "--profile", str(short_profile),
                   "--warmup", "2", "--out", str(out)])
        assert rc == 0
        trace = SimTrace.from_csv(out)
        assert len(trace) == 100

    def test_encrypted_without_keys_is_usage_error(self, workspace, short_profile, tmp_path):
        rc = main(["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                   "--phi", str(workspace / "phi.csv"), "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_COMBINATION

    def test_encrypted_needs_secret_part(self, workspace, short_profile, tmp_path):
        rc = main(["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                   "--phi", str(workspace / "phi.csv"),
                   "--keys", str(workspace / "key.pub"), "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_COMBINATION

    def test_verbose_xi_needs_matrix_mode(self, short_profile, tmp_path):
        rc = main(["simulate", "--mode", "original", "--profile", str(short_profile),
                   "--warmup", "2", "--verbose-xi", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_COMBINATION

    @pytest.mark.parametrize("mode", ["approx", "encrypted"])
    def test_non_finite_phi_exits_runtime(self, mode, workspace, short_profile, tmp_path, capsys):
        # a NaN entry used to run approx with u1 = nan and end encrypted in a bare int(NaN) error
        phi = load_phi(workspace / "phi.csv")
        phi[3][5] = np.nan
        np.savetxt(tmp_path / "phi.csv", phi, delimiter=",")
        rc = main(["simulate", "--mode", mode, "--profile", str(short_profile), "--warmup", "2",
                   "--phi", str(tmp_path / "phi.csv"), "--keys", str(workspace / "key.sec"),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_RUNTIME
        assert "Phi[4][6] = nan is not finite" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_xi_outside_its_bound_exits_runtime(self, workspace, short_profile, tmp_path, capsys):
        # the device's OverflowError used to end simulate in a traceback with exit 1
        rc = main(["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                   "--warmup", "2", "--phi", str(workspace / "phi.csv"),
                   "--keys", str(workspace / "key.sec"), "--noise-pressure", "5000",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "xi_12 = " in err and "outside its declared bound" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()

    def test_nan_noise_writes_nan_cells(self, workspace, short_profile, tmp_path, capsys):
        # the loop refuses a NaN sensor at step 0, so no trace is written;
        # TestTraceCsv covers writing and reading NaN cells
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--mode", "approx", "--profile", str(short_profile),
                   "--warmup", "2", "--phi", str(workspace / "phi.csv"),
                   "--noise-pressure", "nan", "--out", str(out)])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "pamenc: sensor p1 = nan at step 0 (t = 0 s) is not finite\n"
        assert not out.exists()

    def test_key_file_with_a_second_h_line_exits_runtime(self, workspace, short_profile,
                                                         tmp_path, capsys):
        # a repeated name is refused, not settled by its last line
        bad = tmp_path / "bad.sec"
        bad.write_text((workspace / "key.sec").read_text() + "h = 2\n")
        rc = main(["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                   "--phi", str(workspace / "phi.csv"), "--keys", str(bad),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == "pamenc: line 5: duplicate key 'h'\n"
        assert not (tmp_path / "t.csv").exists()

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["simulate", "--mode", "approx", "--profile", "ref2",
                   "--phi", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_MISSING_FILE

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "original", "--frobnicate"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, workspace, short_profile, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                "--phi", str(workspace / "phi.csv"), "--keys", str(workspace / "key.sec"),
                "--seed", "3", "--warmup", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_measure_time_summary(self, workspace, short_profile, tmp_path, capsys):
        args = ["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                "--phi", str(workspace / "phi.csv"), "--keys", str(workspace / "key.sec"),
                "--warmup", "2"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / 'a.csv'} (100 steps)"]
        assert main(args + ["--measure-time", "--out", str(tmp_path / "b.csv")]) == 0
        online, offline, wrote = capsys.readouterr().out.splitlines()
        assert online.startswith("online step: p50 ") and " p99 " in online and " max " in online
        assert online.endswith(" deadline overruns (flag 16)")
        assert offline.startswith("offline refill: mean ") and offline.endswith(" ms per step")
        assert wrote.startswith("wrote ")

    def test_env_out_dir_override(self, workspace, short_profile, tmp_path, monkeypatch):
        monkeypatch.setenv("PAMENC_OUT_DIR", str(tmp_path / "outputs"))
        rc = main(["simulate", "--mode", "original", "--profile", str(short_profile),
                   "--warmup", "2", "--out", "trace.csv"])
        assert rc == 0
        assert (tmp_path / "outputs" / "trace.csv").exists()


class TestEvaluateCompare:
    @pytest.fixture()
    def trace_file(self, workspace, short_profile, tmp_path):
        out = tmp_path / "trace.csv"
        main(["simulate", "--mode", "original", "--profile", str(short_profile),
              "--warmup", "2", "--out", str(out)])
        return out

    def test_evaluate_matches_l2_oracle(self, trace_file, capsys, tmp_path):
        report_csv = tmp_path / "report.csv"
        rc = main(["evaluate", "--trace", str(trace_file), "--windows", "50:99",
                   "--out", str(report_csv)])
        assert rc == 0
        trace = SimTrace.from_csv(trace_file)
        want = np.sqrt(np.sum((trace["theta_deg"][50:100] - trace["theta_ref_deg"][50:100]) ** 2))
        rows = report_csv.read_text().splitlines()
        theta_row = next(r for r in rows if ",theta," in r)
        got = float(theta_row.split(",")[4])
        assert got == pytest.approx(want, rel=1e-10)

    def test_compare_two_traces(self, trace_file, tmp_path, capsys):
        rc = main(["compare", "--traces", str(trace_file), str(trace_file),
                   "--labels", "a", "b", "--windows", "50:99"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worst tracked-to-reference ratio" in out

    def test_compare_label_mismatch(self, trace_file):
        rc = main(["compare", "--traces", str(trace_file), "--labels", "a", "b"])
        assert rc == EXIT_BAD_COMBINATION

    def test_empty_trace_file_exits_runtime(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["evaluate", "--trace", str(empty)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == f"pamenc: trace file {empty} is empty: no header row\n"

    @pytest.mark.parametrize("rows", [0, 4], ids=["header-only", "4-rows"])
    def test_trace_shorter_than_a_window_exits_runtime(self, trace_file, rows, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("".join(trace_file.read_text().splitlines(keepends=True)[:rows + 1]))
        assert main(["evaluate", "--trace", str(short)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == f"pamenc: window 500:749 is outside the trace's {rows} steps\n"
        assert main(["compare", "--traces", str(short), str(short),
                     "--windows", "0:3,50:99"]) == EXIT_RUNTIME
        assert capsys.readouterr().err.endswith(
            f"window {'0:3' if rows == 0 else '50:99'} is outside the trace's {rows} steps\n")

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("spec, bad", [("5", "5"), ("a:b", "a:b"), ("9:3", "9:3"),
                                           ("0:3,7", "7"), ("0:3,", "")])
    def test_bad_windows_are_usage_errors(self, trace_file, command, spec, bad, capsys):
        flag = "--trace" if command == "evaluate" else "--traces"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(trace_file), "--windows", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith(f"argument --windows: bad window {bad!r}: "
                            "expected k0:k1, integers with 0 <= k0 <= k1")


def _simulate_connected(workspace, profile, tmp_path, address):
    host, port = address
    return main(["simulate", "--mode", "encrypted", "--profile", str(profile),
                 "--phi", str(workspace / "phi.csv"), "--keys", str(workspace / "key.sec"),
                 "--warmup", "2", "--net-timeout", "2.0", "--connect", f"{host}:{port}",
                 "--out", str(tmp_path / "t.csv")])


class TestServeIntegration:
    def test_simulate_through_service(self, workspace, short_profile, tmp_path):
        from pamenc import ControllerService, Drbg, EncodingParams, enc_matrix

        phi = load_phi(workspace / "phi.csv")
        keys = load_keys(workspace / "key.sec")
        enc_phi = enc_matrix(phi, EncodingParams(), keys, Drbg(None))
        direct = tmp_path / "direct.csv"
        netted = tmp_path / "netted.csv"
        args = ["simulate", "--mode", "encrypted", "--profile", str(short_profile),
                "--phi", str(workspace / "phi.csv"), "--keys", str(workspace / "key.sec"),
                "--seed", "5", "--warmup", "2", "--net-timeout", "2.0"]
        assert main(args + ["--out", str(direct)]) == 0
        with ControllerService(enc_phi, keys.p) as svc:
            host, port = svc.address
            assert main(args + ["--connect", f"{host}:{port}", "--out", str(netted)]) == 0
        assert direct.read_bytes() == netted.read_bytes()

    def test_connect_needs_encrypted_mode(self, workspace, short_profile, tmp_path):
        rc = main(["simulate", "--mode", "approx", "--profile", str(short_profile),
                   "--phi", str(workspace / "phi.csv"), "--warmup", "2",
                   "--connect", "127.0.0.1:9", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_BAD_COMBINATION

    def test_protocol_error_exits_runtime(self, workspace, short_profile, tmp_path, capsys):
        from pamenc import ControllerService, Drbg, EncodingParams, enc_matrix

        # four rows of Enc(Phi): each reply holds 72 products, not 90
        keys = load_keys(workspace / "key.sec")
        enc_phi = enc_matrix(load_phi(workspace / "phi.csv")[:4], EncodingParams(), keys,
                             Drbg(None))
        with ControllerService(enc_phi, keys.p) as svc:
            rc = _simulate_connected(workspace, short_profile, tmp_path, svc.address)
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "expected 90 ciphertexts, got 72" in err and len(err.splitlines()) == 1

    def test_replayed_reply_exits_runtime(self, workspace, short_profile, tmp_path, capsys,
                                          monkeypatch):
        from pamenc import ControllerService, Drbg, EncodingParams, crypto, enc_matrix, service

        # a service that answers every step request with its reply to the first, under
        # the current sequence number: the stale c2 decode outside their bounds
        replies = []

        def replaying_enc_eval(enc_phi, enc_xi, p):
            replies.append(crypto.enc_eval(enc_phi, enc_xi, p))
            return replies[0]

        monkeypatch.setattr(service, "enc_eval", replaying_enc_eval)
        keys = load_keys(workspace / "key.sec")
        enc_phi = enc_matrix(load_phi(workspace / "phi.csv"), EncodingParams(), keys, Drbg(None))
        with ControllerService(enc_phi, keys.p) as svc:
            rc = _simulate_connected(workspace, short_profile, tmp_path, svc.address)
        assert rc == EXIT_RUNTIME
        assert len(replies) == 2
        err = capsys.readouterr().err
        assert "altered or replayed" in err and len(err.splitlines()) == 1
        assert "exceeds its bound" in err

    def test_replayed_frame_exits_runtime(self, workspace, short_profile, tmp_path, capsys,
                                          monkeypatch):
        from pamenc import ControllerService, Drbg, EncodingParams, enc_matrix, protocol

        # a service that sends its first reply frame again, sequence number and all
        frames = []
        pack = protocol.pack_eval_response

        def replaying_pack(c2s, seq=0):
            frames.append(pack(c2s, seq))
            return frames[0]

        monkeypatch.setattr(protocol, "pack_eval_response", replaying_pack)
        keys = load_keys(workspace / "key.sec")
        enc_phi = enc_matrix(load_phi(workspace / "phi.csv"), EncodingParams(), keys, Drbg(None))
        with ControllerService(enc_phi, keys.p) as svc:
            rc = _simulate_connected(workspace, short_profile, tmp_path, svc.address)
        assert rc == EXIT_RUNTIME
        assert len(frames) == 2
        err = capsys.readouterr().err
        assert err == ("pamenc: reply carries sequence number 0, the request 1; "
                       "the reply was replayed or reordered\n")
        assert not (tmp_path / "t.csv").exists()

    def test_first_reply_c1_of_zero_exits_runtime(self, workspace, short_profile, tmp_path,
                                                  capsys):
        from pamenc import ControllerService, Drbg, EncodingParams, enc_matrix

        # a service whose first reply, the set-up reply Enc(Phi), carries c1 = 0 on (4,10)
        keys = load_keys(workspace / "key.sec")
        enc_phi = enc_matrix(load_phi(workspace / "phi.csv"), EncodingParams(), keys, Drbg(None))
        enc_phi[3][9] = enc_phi[3][9]._replace(c1=0)
        with ControllerService(enc_phi, keys.p) as svc:
            rc = _simulate_connected(workspace, short_profile, tmp_path, svc.address)
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "product (4,10): c1 = 0 is outside [1, p)" in err and len(err.splitlines()) == 1

    def test_service_holding_another_phi_exits_runtime(self, workspace, short_profile, tmp_path,
                                                       capsys):
        from pamenc import ControllerService, Drbg, EncodingParams, enc_matrix

        # Enc of a Phi with entry (2,7) off by 1 %: refused at set-up, before any step
        keys = load_keys(workspace / "key.sec")
        other = load_phi(workspace / "phi.csv")
        other[1][6] *= 1.01
        enc_phi = enc_matrix(other, EncodingParams(), keys, Drbg(None))
        with ControllerService(enc_phi, keys.p) as svc:
            rc = _simulate_connected(workspace, short_profile, tmp_path, svc.address)
        assert rc == EXIT_RUNTIME
        assert not (tmp_path / "t.csv").exists()
        err = capsys.readouterr().err
        assert "Enc(Phi)[2][7] does not decrypt" in err and len(err.splitlines()) == 1

    def test_closed_connection_exits_runtime(self, workspace, short_profile, tmp_path):
        # a peer that accepts and hangs up at once
        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        try:
            rc = _simulate_connected(workspace, short_profile, tmp_path, listener.getsockname())
        finally:
            listener.close()
            thread.join(timeout=2.0)
        assert rc == EXIT_RUNTIME


SRC = Path(__file__).resolve().parents[1] / "src"


def _serve(workspace, key_file, **popen_kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PAMENC_PORT", None)
    return subprocess.Popen(
        [sys.executable, "-m", "pamenc.cli", "serve", "--phi", str(workspace / "phi.csv"),
         "--pubkey", str(workspace / key_file), "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen_kwargs)


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class TestServeProcess:
    @pytest.mark.parametrize("sig, popen_kwargs", [
        (signal.SIGTERM, {}),
        # a background job of a non-interactive shell starts with SIGINT ignored
        (signal.SIGINT, {"preexec_fn": _ignore_sigint}),
    ], ids=["sigterm", "sigint-ignored-at-start"])
    def test_signal_stops_cleanly(self, workspace, sig, popen_kwargs):
        proc = _serve(workspace, "key.pub", **popen_kwargs)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30.0)
            assert ready, "no banner within 30 s"
            assert proc.stdout.readline().startswith("controller service on ")
            proc.send_signal(sig)
            assert proc.wait(timeout=5.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_secret_key_file_refused(self, workspace):
        proc = _serve(workspace, "key.sec")
        try:
            _, err = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == EXIT_BAD_COMBINATION
        assert "secret exponent" in err


def _readme_cli_commands() -> list[str]:
    """The `pamenc ...` commands of README's CLI block, continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pamenc ")]


def test_readme_cli_commands_parse():
    # parse only: a removed or renamed option in the README fails here
    commands = _readme_cli_commands()
    for command in commands:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])  # exits on an error
    assert {shlex.split(c)[1] for c in commands} == {
        "keygen", "fit", "build-phi", "simulate", "serve", "evaluate", "compare"}
