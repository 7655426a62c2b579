"""Identity broker: external assertion in, local credentials out.

Assertions are JSON payloads ECDSA-signed by a (mock) identity provider's
key.  Membership in a required group gates access; a successful login mints
the three facility credentials: per-cluster X.509 material for mutual TLS,
a batch token, and a data-access token.  Nothing minted here grants access
outside the facility; the federation credential lives only in the data
proxy.
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
import secrets
import time
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from . import certs, tokens, wire

log = logging.getLogger(__name__)

DEFAULT_GROUP = "cms"
DEFAULT_TTL = 3600.0


class AuthError(ValueError):
    code = "auth_error"


class BadSignature(AuthError):
    code = "bad_signature"


class AssertionExpired(AuthError):
    code = "expired"


class NotMember(AuthError):
    code = "not_member"


def _canon(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def generate_idp_keypair() -> tuple[str, str]:
    """(private_pem, public_pem) for a mock identity provider."""
    key = ec.generate_private_key(ec.SECP256R1())
    private_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ).decode()
    public_pem = (
        key.public_key()
        .public_bytes(serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo)
        .decode()
    )
    return private_pem, public_pem


def sign_assertion(
    idp_private_pem: str, sub: str, groups: list[str], iat: float, exp: float
) -> dict:
    key = serialization.load_pem_private_key(idp_private_pem.encode(), password=None)
    payload = {"sub": sub, "groups": list(groups), "iat": iat, "exp": exp}
    sig = key.sign(_canon(payload), ec.ECDSA(hashes.SHA256()))
    return {"payload": payload, "sig": base64.b64encode(sig).decode("ascii")}


@dataclass
class CredentialBundle:
    cluster_id: str
    subject: str
    ca: certs.PemPair
    host: certs.PemPair
    user: certs.PemPair
    batch_token: str
    data_token: str
    sni_hostname: str

    def to_wire(self) -> dict:
        # the host key never leaves the facility side
        return {
            "cluster_id": self.cluster_id,
            "subject": self.subject,
            "ca_cert": self.ca.cert_pem,
            "host_cert": self.host.cert_pem,
            "user_cert": self.user.cert_pem,
            "user_key": self.user.key_pem,
            "batch_token": self.batch_token,
            "data_token": self.data_token,
            "sni_hostname": self.sni_hostname,
        }


@dataclass(frozen=True)
class FacilityKeys:
    batch: bytes
    data: bytes

    @classmethod
    def generate(cls) -> "FacilityKeys":
        return cls(batch=secrets.token_bytes(32), data=secrets.token_bytes(32))

    def for_aud(self, aud: str) -> bytes:
        if aud == "batch":
            return self.batch
        if aud == "data":
            return self.data
        raise tokens.TokenError(f"unknown audience {aud!r}")


class AuthService:
    """Stateless verification over a serialized per-subject cluster store."""

    def __init__(
        self,
        idp_public_pem: str,
        keys: FacilityKeys | None = None,
        required_group: str = DEFAULT_GROUP,
        token_ttl: float = DEFAULT_TTL,
        facility_domain: str = "dask.local",
        clock=time.time,
    ):
        self._idp_key = serialization.load_pem_public_key(idp_public_pem.encode())
        self.keys = keys or FacilityKeys.generate()
        self.required_group = required_group
        self.token_ttl = token_ttl
        self.facility_domain = facility_domain
        self._clock = clock
        self._bundles: dict[str, tuple[CredentialBundle, float]] = {}  # subject -> (bundle, tokens' exp)
        self._counter = 0

    def verify_identity(self, assertion: dict, required_group: str | None = None) -> str:
        group = self.required_group if required_group is None else required_group
        try:
            payload = assertion["payload"]
            sig = base64.b64decode(assertion["sig"])
        except (KeyError, TypeError, ValueError):
            raise BadSignature("malformed assertion") from None
        try:
            self._idp_key.verify(sig, _canon(payload), ec.ECDSA(hashes.SHA256()))
        except InvalidSignature:
            raise BadSignature("bad signature") from None
        if not isinstance(payload.get("exp"), (int, float)) or payload["exp"] <= self._clock():
            raise AssertionExpired("assertion expired")
        if group not in payload.get("groups", []):
            raise NotMember(f"not a member of {group!r}")
        sub = payload.get("sub")
        if not isinstance(sub, str) or not sub:
            raise BadSignature("assertion has no subject")
        return sub

    def mint_bundle(self, subject: str, ttl: float | None = None) -> CredentialBundle:
        """Mint the credential bundle for a subject, or return the existing one;
        once its tokens have expired, the same cluster and certs get fresh ones."""
        ttl = self.token_ttl if ttl is None else ttl
        now = self._clock()
        bundle, tokens_exp = self._bundles.get(subject, (None, now))
        if bundle is not None and now < tokens_exp:
            return bundle
        fresh = {
            "batch_token": tokens.mint_token(self.keys.batch, subject, "batch", now + ttl),
            "data_token": tokens.mint_token(self.keys.data, subject, "data", now + ttl),
        }
        if bundle is not None:
            bundle = replace(bundle, **fresh)
        else:
            self._counter += 1
            cluster_id = f"{subject}-{self._counter}"
            hostname = f"{cluster_id}.{self.facility_domain}"
            ca = certs.make_ca(f"casa-mini ca {cluster_id}", ttl_s=max(ttl, 3600.0))
            bundle = CredentialBundle(
                cluster_id=cluster_id,
                subject=subject,
                ca=ca,
                host=certs.make_host_cert(ca, hostname, ttl_s=max(ttl, 3600.0)),
                user=certs.make_user_cert(ca, subject, ttl_s=max(ttl, 3600.0)),
                sni_hostname=hostname,
                **fresh,
            )
        self._bundles[subject] = (bundle, now + ttl)
        return bundle

    def verify_token(self, token: str, aud: str, now: float | None = None) -> dict:
        return tokens.verify_token(
            token, self.keys.for_aud(aud), aud, self._clock() if now is None else now
        )

    def login(self, assertion: dict) -> CredentialBundle:
        return self.mint_bundle(self.verify_identity(assertion))


async def serve(
    auth: AuthService, host: str, port: int, on_login=None, conns: wire.ConnectionTasks | None = None
) -> asyncio.AbstractServer:
    """Framed-JSON login endpoint; on_login(bundle) may add reply fields,
    and a login whose on_login raises gets a "provision_failed" Err reply.

    Its connection handlers run in `conns`, whose close(server) stops the
    endpoint and ends every open connection quietly."""

    async def respond(msg: wire.WireMessage) -> wire.WireMessage:
        if msg.kind != "Login":
            return wire.err("bad_request", f"unsupported kind {msg.kind}")
        try:
            bundle = auth.login(msg.body.get("assertion", {}))
        except AuthError as exc:
            return wire.err(exc.code, str(exc))
        reply = bundle.to_wire()
        if on_login is not None:
            try:
                extra = on_login(bundle)
                if asyncio.iscoroutine(extra):
                    extra = await extra
            except Exception as exc:
                log.warning("login of %s: provisioning failed: %s", bundle.subject, exc, exc_info=True)
                return wire.err("provision_failed", str(exc))
            reply.update(extra or {})
        return wire.ok(reply)

    handler = (conns or wire.ConnectionTasks()).wrap(wire.answering(respond, "authd"))
    return await asyncio.start_server(handler, host, port)
