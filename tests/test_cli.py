import asyncio
import json
import os
import threading

import pytest

from casa_mini import cli

from .conftest import make_assertion
from .test_facility import small_facility


def test_bench_and_stalls_cli(tmp_path, capsys):
    out_csv = str(tmp_path / "sweep.csv")
    streams = str(tmp_path / "streams")
    cfg = {"sweep": [2, 4], "repeats": 2, "n_files": 2, "events_per_file": 5000, "chunk_size": 1000}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(
        [
            "bench",
            "--config",
            str(cfg_path),
            "--out",
            out_csv,
            "--streams-dir",
            streams,
            "--data-root",
            str(tmp_path / "data"),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "adaptive run: target=26" in printed
    assert os.path.exists(out_csv)
    stream_files = sorted(os.listdir(streams))
    assert len(stream_files) == 4  # 2 ns x 2 repeats

    rc = cli.main(
        ["stalls", "--stream", os.path.join(streams, stream_files[0]), "--out", str(tmp_path / "stalls.csv")]
    )
    assert rc == 0
    stall_out = capsys.readouterr().out
    assert "max stall" in stall_out
    header = (tmp_path / "stalls.csv").read_text().splitlines()[0].strip()
    assert header == "worker_id,up_t,first_task_t,stall_s"


def test_login_cluster_submit_cli(idp_keys, tmp_path, capsys):
    facility, dataset, epf = small_facility(idp_keys, tmp_path)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    addrs = {}

    def serve():
        asyncio.set_event_loop(loop)

        async def boot():
            addrs.update(await facility.start())
            ready.set()

        loop.run_until_complete(boot())
        loop.run_forever()
        loop.run_until_complete(asyncio.sleep(0.1))  # drain transport teardown
        loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(20)
    try:
        home = str(tmp_path / "home")
        assertion_path = tmp_path / "assertion.json"
        assertion_path.write_text(json.dumps(make_assertion(idp_keys, sub="alice")))
        authd_addr = f"{addrs['authd'][0]}:{addrs['authd'][1]}"
        assert cli.main(["login", "--assertion", str(assertion_path), "--authd", authd_addr, "--home", home]) == 0
        assert os.path.exists(os.path.join(home, "session.json"))
        assert capsys.readouterr().out.startswith("logged in as alice")

        assert cli.main(["cluster", "up", "--workers", "0", "--home", home]) == 0
        capsys.readouterr()

        pipeline_path = tmp_path / "pipeline.json"
        pipeline_path.write_text(
            json.dumps([{"define": ["pt", "sqrt(px*px+py*py)"]}, {"hist": ["h", "pt", 10, 0, 100]}])
        )
        # dataset by NAME: the manifest is fetched through the data proxy
        rc = cli.main(
            [
                "submit",
                "--pipeline",
                str(pipeline_path),
                "--dataset",
                "mini",
                "--chunk-size",
                "50",
                "--home",
                home,
                "--out",
                str(tmp_path / "hists.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out
        hists = json.loads((tmp_path / "hists.json").read_text())
        assert hists[0]["name"] == "h" and sum(hists[0]["counts"]) > 0
        # a job that fails says why
        pipeline_path.write_text(json.dumps([{"hist": ["h", "mass", 10, 0, 100]}]))  # a column the files lack
        rc = cli.main(["submit", "--pipeline", str(pipeline_path), "--dataset", "mini", "--home", home])
        assert rc == 1
        out = capsys.readouterr().out
        assert ": failed " in out and "error: unknown column mass" in out
    finally:
        stop = asyncio.run_coroutine_threadsafe(facility.stop(), loop)
        stop.result(timeout=20)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


def test_cli_requires_session_for_submit(tmp_path):
    with pytest.raises(SystemExit, match="no session"):
        cli.main(
            [
                "submit",
                "--pipeline",
                "x.json",
                "--dataset",
                "y",
                "--home",
                str(tmp_path / "empty"),
            ]
        )
