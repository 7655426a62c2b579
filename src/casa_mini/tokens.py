"""Facility bearer tokens.

Format: base64url(JSON payload) + "." + base64url(HMAC-SHA256(key, payload)).
The payload carries {sub, iss, aud, exp, scope}; the audience ("batch" or
"data") selects the verifying key, so a token minted for one service never
verifies at the other.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json

ISSUER = "casa-authd"
AUDIENCES = ("batch", "data")


class TokenError(ValueError):
    pass


class TokenMalformed(TokenError):
    pass


class TokenBadMac(TokenError):
    pass


class TokenWrongAudience(TokenError):
    pass


class TokenExpired(TokenError):
    pass


def _b64e(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def _b64d(text: str) -> bytes:
    """Strict inverse of _b64e: only the canonical encoding is accepted.

    Re-encoding and comparing closes the tampering hole where base64 padding
    bits (the unused low bits of a final character) can be flipped without
    changing the decoded bytes.
    """
    try:
        raw = text.encode("ascii")
        data = base64.urlsafe_b64decode(raw + b"=" * (-len(raw) % 4))
    except (ValueError, UnicodeEncodeError) as exc:
        raise TokenMalformed(f"bad base64url: {exc}") from None
    if _b64e(data) != text:
        raise TokenMalformed("non-canonical base64url")
    return data


def mint_token(key: bytes, sub: str, aud: str, exp: float, scope: str = "") -> str:
    if aud not in AUDIENCES:
        raise TokenError(f"unknown audience {aud!r}")
    payload = json.dumps(
        {"sub": sub, "iss": ISSUER, "aud": aud, "exp": exp, "scope": scope},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    mac = hmac.new(key, payload, hashlib.sha256).digest()
    return f"{_b64e(payload)}.{_b64e(mac)}"


def verify_token(token: str, key: bytes, aud: str, now: float) -> dict:
    """Return the claims iff the MAC is valid, the audience matches, and exp > now."""
    parts = token.split(".")
    if len(parts) != 2:
        raise TokenMalformed("token is not payload.mac")
    payload = _b64d(parts[0])
    mac = _b64d(parts[1])
    expected = hmac.new(key, payload, hashlib.sha256).digest()
    if not hmac.compare_digest(mac, expected):
        raise TokenBadMac("MAC mismatch")
    try:
        claims = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise TokenMalformed("payload is not JSON") from None
    if not isinstance(claims, dict):
        raise TokenMalformed("payload is not an object")
    if claims.get("aud") != aud:
        raise TokenWrongAudience(f"wrong audience {claims.get('aud')!r}, need {aud!r}")
    exp = claims.get("exp")
    if not isinstance(exp, (int, float)) or exp <= now:
        raise TokenExpired("token expired")
    return claims


# How many verified token strings one TokenGate remembers.
GATE_CAPACITY = 4096


class TokenGate:
    """verify_token for one key and audience, with the MAC checked once per
    token string.

    The first call with a string runs the full verify_token.  The string's
    `exp` is then remembered, and a later call with the identical string only
    checks `exp > now`: the same bytes always carry the same MAC, audience and
    expiry.  A failure is never remembered.  At most GATE_CAPACITY strings
    are kept, the oldest dropped first.
    """

    def __init__(self, key: bytes, aud: str):
        self.key = key
        self.aud = aud
        self._exp: dict[str, float] = {}

    def check(self, token: str, now: float) -> None:
        exp = self._exp.get(token)
        if exp is None:
            exp = verify_token(token, self.key, self.aud, now)["exp"]
            if len(self._exp) >= GATE_CAPACITY:
                del self._exp[next(iter(self._exp))]
            self._exp[token] = exp
        elif exp <= now:
            del self._exp[token]
            raise TokenExpired("token expired")
