import base64
import hashlib
import hmac as hmac_mod
import json
import time

import pytest

from casa_mini import authd, certs, tokens

from .conftest import make_assertion


@pytest.fixture(scope="module")
def idp(idp_keys):
    return idp_keys


@pytest.fixture()
def auth(idp):
    _, public_pem = idp
    return authd.AuthService(public_pem, token_ttl=3600.0)


# ---- tokens -------------------------------------------------------------------


def test_token_round_trip_and_reference_mac():
    key = b"k" * 32
    token = tokens.mint_token(key, "alice", "data", exp=5000.0)
    claims = tokens.verify_token(token, key, "data", now=100.0)
    assert claims["sub"] == "alice" and claims["aud"] == "data"
    # recompute the MAC from first principles (stdlib reference vectors)
    payload_b64, mac_b64 = token.split(".")
    pad = "=" * (-len(payload_b64) % 4)
    payload = base64.urlsafe_b64decode(payload_b64 + pad)
    expected = hmac_mod.new(key, payload, hashlib.sha256).digest()
    got = base64.urlsafe_b64decode(mac_b64 + "=" * (-len(mac_b64) % 4))
    assert got == expected
    assert json.loads(payload)["iss"] == "casa-authd"


def test_token_error_order_expired_but_mac_valid():
    # the MAC must verify on an expired token: only expiry fails
    key = b"q" * 32
    token = tokens.mint_token(key, "alice", "data", exp=50.0)
    payload_b64, mac_b64 = token.split(".")
    payload = base64.urlsafe_b64decode(payload_b64 + "=" * (-len(payload_b64) % 4))
    mac = base64.urlsafe_b64decode(mac_b64 + "=" * (-len(mac_b64) % 4))
    assert hmac_mod.compare_digest(hmac_mod.new(key, payload, hashlib.sha256).digest(), mac)
    with pytest.raises(tokens.TokenExpired):
        tokens.verify_token(token, key, "data", now=100.0)


def test_token_wrong_audience():
    key = b"k" * 32
    token = tokens.mint_token(key, "alice", "data", exp=5000.0)
    with pytest.raises(tokens.TokenWrongAudience):
        tokens.verify_token(token, key, "batch", now=0.0)


def test_token_malformed():
    key = b"k" * 32
    with pytest.raises(tokens.TokenMalformed):
        tokens.verify_token("nodot", key, "data", now=0.0)
    with pytest.raises(tokens.TokenMalformed):
        tokens.verify_token("a.b.c", key, "data", now=0.0)


def test_token_payload_tamper_invalidates_mac():
    key = b"k" * 32
    token = tokens.mint_token(key, "alice", "data", exp=5000.0)
    payload_b64, mac_b64 = token.split(".")
    raw = bytearray(base64.urlsafe_b64decode(payload_b64 + "=" * (-len(payload_b64) % 4)))
    for i in range(len(raw)):
        tampered = bytes(raw[:i]) + bytes([raw[i] ^ 0x01]) + bytes(raw[i + 1 :])
        forged = base64.urlsafe_b64encode(tampered).rstrip(b"=").decode() + "." + mac_b64
        with pytest.raises(tokens.TokenError):
            tokens.verify_token(forged, key, "data", now=0.0)


def _count_verifies(monkeypatch):
    """Count full verify_token runs; the gate looks it up by module name."""
    calls = []
    real = tokens.verify_token

    def counted(token, *args, **kwargs):
        calls.append(token)
        return real(token, *args, **kwargs)

    monkeypatch.setattr(tokens, "verify_token", counted)
    return calls


def test_gate_checks_mac_once_and_expiry_every_time(monkeypatch):
    calls = _count_verifies(monkeypatch)
    key = b"g" * 32
    gate = tokens.TokenGate(key, "data")
    token = tokens.mint_token(key, "alice", "data", exp=1000.0)
    for now in (1.0, 500.0, 999.9):
        gate.check(token, now)
    assert calls == [token]
    with pytest.raises(tokens.TokenExpired):
        gate.check(token, 1000.0)
    with pytest.raises(tokens.TokenExpired):
        gate.check(token, 2000.0)


def test_gate_rejects_tampered_string_after_good_one():
    key = b"g" * 32
    gate = tokens.TokenGate(key, "data")
    token = tokens.mint_token(key, "alice", "data", exp=1000.0)
    gate.check(token, 1.0)
    for i, ch in enumerate(token):
        tampered = token[:i] + ("A" if ch != "A" else "B") + token[i + 1 :]
        with pytest.raises(tokens.TokenError):
            gate.check(tampered, 1.0)
    gate.check(token, 1.0)


def test_gate_rejects_wrong_audience_and_wrong_key():
    key = b"g" * 32
    token = tokens.mint_token(key, "alice", "data", exp=1000.0)
    tokens.TokenGate(key, "data").check(token, 1.0)
    with pytest.raises(tokens.TokenWrongAudience):
        tokens.TokenGate(key, "batch").check(token, 1.0)
    with pytest.raises(tokens.TokenBadMac):
        tokens.TokenGate(b"h" * 32, "data").check(token, 1.0)


def test_gate_does_not_remember_failures(monkeypatch):
    calls = _count_verifies(monkeypatch)
    key = b"g" * 32
    gate = tokens.TokenGate(key, "data")
    token = tokens.mint_token(key, "alice", "data", exp=1000.0)
    for _ in range(2):
        with pytest.raises(tokens.TokenExpired):
            gate.check(token, 1000.0)
    assert len(calls) == 2
    gate.check(token, 1.0)  # valid at an earlier time: verified afresh, then remembered
    gate.check(token, 2.0)
    assert len(calls) == 3
    wrong = tokens.TokenGate(key, "batch")
    for _ in range(2):
        with pytest.raises(tokens.TokenWrongAudience):
            wrong.check(token, 1.0)
    assert len(calls) == 5


def test_gate_memory_is_bounded(monkeypatch):
    monkeypatch.setattr(tokens, "GATE_CAPACITY", 3)
    calls = _count_verifies(monkeypatch)
    key = b"g" * 32
    gate = tokens.TokenGate(key, "data")
    minted = [tokens.mint_token(key, f"user{i}", "data", exp=1000.0) for i in range(10)]
    for token in minted:
        gate.check(token, 1.0)
        assert len(gate._exp) <= 3
    assert len(calls) == 10
    gate.check(minted[-1], 1.0)  # newest is remembered
    assert len(calls) == 10
    gate.check(minted[0], 1.0)  # oldest was dropped: verified again
    assert len(calls) == 11


# ---- identity assertions ---------------------------------------------------------


def test_verify_identity_member(idp, auth):
    assert auth.verify_identity(make_assertion(idp, sub="alice", groups=("cms",))) == "alice"


def test_verify_identity_not_member(idp, auth):
    with pytest.raises(authd.NotMember, match="not a member"):
        auth.verify_identity(make_assertion(idp, sub="bob", groups=("atlas",)))


def test_verify_identity_bad_signature(idp, auth):
    assertion = make_assertion(idp)
    sig = bytearray(base64.b64decode(assertion["sig"]))
    sig[8] ^= 0x01
    assertion["sig"] = base64.b64encode(bytes(sig)).decode()
    with pytest.raises(authd.BadSignature):
        auth.verify_identity(assertion)


def test_verify_identity_payload_tamper(idp, auth):
    assertion = make_assertion(idp, sub="bob", groups=("atlas",))
    assertion["payload"]["groups"] = ["cms"]  # promote yourself -> signature breaks
    with pytest.raises(authd.BadSignature):
        auth.verify_identity(assertion)


def test_verify_identity_expired(idp, auth):
    _, _ = idp
    expired = make_assertion(idp, ttl=-10.0)
    with pytest.raises(authd.AssertionExpired):
        auth.verify_identity(expired)


def test_distinct_error_codes():
    assert authd.BadSignature.code != authd.AssertionExpired.code != authd.NotMember.code


# ---- bundles -----------------------------------------------------------------------


def test_mint_bundle_contents(auth):
    bundle = auth.mint_bundle("alice")
    assert bundle.cluster_id == "alice-1"
    assert bundle.sni_hostname == "alice-1.dask.local"
    assert certs.cert_cn(bundle.user.cert_pem) == "alice"
    assert certs.chains_to(bundle.user.cert_pem, bundle.ca.cert_pem)
    assert certs.chains_to(bundle.host.cert_pem, bundle.ca.cert_pem)
    batch_claims = auth.verify_token(bundle.batch_token, "batch")
    data_claims = auth.verify_token(bundle.data_token, "data")
    assert batch_claims["sub"] == data_claims["sub"] == "alice"
    # configured TTL shows up as exp - iat equivalence: exp is now + ttl
    assert batch_claims["exp"] - time.time() == pytest.approx(3600.0, abs=60.0)


def test_mint_bundle_idempotent_per_subject(auth):
    a = auth.mint_bundle("alice")
    b = auth.mint_bundle("alice")
    assert a is b


def test_mint_bundle_refreshes_expired_tokens(idp):
    now = [1000.0]
    auth = authd.AuthService(idp[1], token_ttl=60.0, clock=lambda: now[0])
    first = auth.mint_bundle("alice")
    now[0] = 1059.0
    assert auth.mint_bundle("alice") is first
    now[0] = 1060.0  # a token with exp <= now is expired
    with pytest.raises(tokens.TokenExpired):
        auth.verify_token(first.data_token, "data")
    again = auth.mint_bundle("alice")
    assert again is not first
    # same cluster and certificates, fresh tokens
    assert (again.cluster_id, again.sni_hostname) == (first.cluster_id, first.sni_hostname)
    assert (again.ca, again.host, again.user) == (first.ca, first.host, first.user)
    for aud, token in (("batch", again.batch_token), ("data", again.data_token)):
        assert auth.verify_token(token, aud)["exp"] == 1120.0
    assert auth.mint_bundle("alice") is again


def test_cross_ca_isolation(auth):
    alice = auth.mint_bundle("alice")
    bob = auth.mint_bundle("bob")
    assert not certs.chains_to(alice.user.cert_pem, bob.ca.cert_pem)
    assert not certs.chains_to(bob.user.cert_pem, alice.ca.cert_pem)


def test_no_federation_material_in_bundle(auth):
    bundle = auth.mint_bundle("carol")
    wire_form = bundle.to_wire()
    assert "host_key" not in wire_form  # held server-side
    blob = json.dumps(wire_form)
    assert "federation" not in blob
    # only the two facility audiences exist; nothing grants outside access
    for aud in ("batch", "data"):
        claims = auth.verify_token(getattr(bundle, f"{aud}_token"), aud)
        assert claims["iss"] == "casa-authd"
        assert claims["aud"] == aud


def test_login_combines_verify_and_mint(idp, auth):
    bundle = auth.login(make_assertion(idp, sub="dave"))
    assert bundle.subject == "dave"
    with pytest.raises(authd.NotMember):
        auth.login(make_assertion(idp, sub="eve", groups=("atlas",)))


def test_oversize_frame_closes_connection(auth):
    import asyncio

    from casa_mini import authd as authd_mod
    from casa_mini import wire

    async def scenario():
        server = await authd_mod.serve(auth, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((wire.MAX_FRAME + 1).to_bytes(4, "big") + b"\x00" * 64)
        await writer.drain()
        data = await asyncio.wait_for(reader.read(), 10)
        assert data == b""  # connection closed, no reply
        writer.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_login_whose_provisioning_fails_gets_an_err_reply(idp, auth):
    import asyncio

    from casa_mini import client, wire

    async def on_login(bundle):
        raise RuntimeError(f"no cluster for {bundle.cluster_id}")

    async def scenario():
        server = await authd.serve(auth, "127.0.0.1", 0, on_login=on_login)
        try:
            with pytest.raises(wire.RequestError) as failed:
                await client.login(server.sockets[0].getsockname()[:2], make_assertion(idp, sub="frank"))
        finally:
            server.close()
            await server.wait_closed()
        return failed.value

    failed = asyncio.run(scenario())
    assert (failed.code, failed.message) == ("provision_failed", "no cluster for frank-1")
