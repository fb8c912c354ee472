"""Wire schemas: request validation and response serialization.

Everything the service reads off the wire funnels through this module,
so a malformed request dies here with a :class:`WireError` (HTTP 400)
and a well-formed one arrives at the handlers as plain typed values.
On the way out, instances, answers and run summaries are rendered the
same way everywhere: facts as their sorted DSL strings (exactly what
``save_instance`` writes), answers as sorted term-string tuples
(matching ``format_answers``' ordering), and the run summary through
:meth:`repro.reporting.RunReport.to_dict` — the same serializer the
CLI's ``--metrics-json`` path uses, so a service response and a CLI
metrics document never disagree on shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Any, Iterable, Optional

from ..data.instances import Instance
from ..data.terms import Term
from ..errors import ReproError

#: Tenants are path-safe identifiers: they become cache-partition names
#: and checkpoint-spool path components.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Mapping ids follow the same grammar (registration may also derive
#: one from the mapping fingerprint's hex prefix, which matches).
_NAME_RE = _TENANT_RE

DEFAULT_TENANT = "public"


class WireError(ReproError):
    """A request the service refuses before doing any work.

    ``http_status`` is the response code the transport layer should
    use; the default 400 covers malformed bodies, 404/409 are raised
    by lookups and registration conflicts.
    """

    def __init__(self, message: str, http_status: int = 400):
        super().__init__(message)
        self.http_status = http_status


def _reject_constant(token: str) -> Any:
    raise WireError(f"request body is not valid JSON: {token} is not a number")


def parse_json_body(raw: bytes) -> dict[str, Any]:
    """Decode a request body as a JSON object (``{}`` for empty).

    The non-standard tokens ``NaN``, ``Infinity`` and ``-Infinity``
    that :func:`json.loads` accepts by default are refused: a ``NaN``
    deadline would pass every range check and silently mean "none".
    ``ValueError`` also covers bad UTF-8 and integers past the
    interpreter's digit limit.
    """
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as error:
        raise WireError(f"request body is not valid JSON: {error}") from None
    if not isinstance(body, dict):
        raise WireError("request body must be a JSON object")
    return body


def tenant_of(body: dict[str, Any], headers: dict[str, str]) -> str:
    """The request's tenant: ``X-Tenant`` header, body field, or default."""
    tenant = headers.get("X-Tenant") or headers.get("x-tenant")
    if tenant is None:
        tenant = body.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise WireError(f"invalid tenant name {tenant!r}")
    return tenant


def valid_name(name: Any, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise WireError(f"invalid {what} {name!r}")
    return name


def get_str(body: dict[str, Any], field: str, *, required: bool = True) -> Optional[str]:
    value = body.get(field)
    if value is None:
        if required:
            raise WireError(f"missing required field {field!r}")
        return None
    if not isinstance(value, str) or not value.strip():
        raise WireError(f"field {field!r} must be a non-empty string")
    return value


def get_int(
    body: dict[str, Any],
    field: str,
    default: Optional[int] = None,
    *,
    minimum: int = 1,
    maximum: Optional[int] = None,
) -> Optional[int]:
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"field {field!r} must be an integer")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" + (f" and <= {maximum}" if maximum else "")
        raise WireError(f"field {field!r} must be {bound}, got {value}")
    return value


def get_number(
    body: dict[str, Any], field: str, default: Optional[float] = None
) -> Optional[float]:
    value = body.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"field {field!r} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise WireError(f"field {field!r} must be positive and finite, got {number}")
    return number


def get_bool(body: dict[str, Any], field: str, default: bool = False) -> bool:
    value = body.get(field, default)
    if not isinstance(value, bool):
        raise WireError(f"field {field!r} must be a boolean")
    return value


def instance_text(body: dict[str, Any], field: str = "target") -> str:
    """The DSL text of an instance field: a string or a list of facts.

    The two accepted spellings normalize to the same text (facts joined
    by newlines), so the content hash — and therefore the parsed-target
    and result caches — treat them identically.
    """
    value = body.get(field)
    if value is None:
        raise WireError(f"missing required field {field!r}")
    if isinstance(value, str):
        return value
    if isinstance(value, list) and all(isinstance(fact, str) for fact in value):
        return "\n".join(value)
    raise WireError(f"field {field!r} must be DSL text or a list of fact strings")


def content_key(text: str) -> str:
    """A SHA-256 content address for wire text (cache key material)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- response rendering ------------------------------------------------------


def render_instance(instance: Instance) -> list[str]:
    """An instance as its sorted fact strings (``save_instance`` order)."""
    return [str(fact) for fact in instance]


def render_instances(instances: Iterable[Instance]) -> list[list[str]]:
    return sorted(render_instance(instance) for instance in instances)


def render_answers(answers: Iterable[tuple[Term, ...]]) -> list[list[str]]:
    """Query answers as sorted lists of term strings."""
    return sorted([str(term) for term in answer] for answer in answers)


def error_payload(kind: str, message: str, **detail: Any) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "ok": False,
        "error": {"kind": kind, "message": message},
    }
    if detail:
        payload["error"].update(detail)
    return payload
