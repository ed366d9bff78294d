"""Run settings as flat ``key=value`` text: one codec, one reader, one writer.

``TrainConfig`` and ``FaimConfig`` derive from ``Settings``, so ``config.txt``,
checkpoint metadata and settings files all write a field with ``str`` (a tuple
comma-separated, None as ``none``) and read it back by its annotated type.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .volume import FormatError


def format_key_values(meta: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in meta.items())


def parse_key_values(text: str) -> dict[str, str]:
    """Parse flat key=value text; blank lines and # comments are skipped, any other line needs an "="."""
    meta = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            k, eq, v = line.partition("=")
            if not eq:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            meta[k.strip()] = v.strip()
    return meta


def _encode(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _decode(hint, text: str):
    """Parse ``text`` as ``hint``: int, float, str, a tuple of ints, or one of them | None."""
    if type(None) in get_args(hint):
        if text == "none":
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        return tuple(get_args(hint)[0](part) for part in text.split(","))
    return hint(text)


class Settings:
    """The codec of a settings dataclass; subclasses define ``validate``."""

    def to_meta(self) -> dict[str, str]:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_meta(cls, meta: dict[str, str]):
        """The defaults, overridden by each field in ``meta`` (other keys are ignored); validated."""
        hints = get_type_hints(cls)
        cfg = cls(**{f.name: _decode(hints[f.name], meta[f.name]) for f in fields(cls) if f.name in meta})
        cfg.validate()
        return cfg

    @classmethod
    def from_checkpoint(cls, meta: dict[str, str]):
        """The settings in checkpoint metadata, which holds every field; else ``FormatError``."""
        try:
            return cls.from_meta({f.name: meta[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise FormatError(f"checkpoint metadata lacks {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"bad checkpoint metadata: {exc}") from exc

    @classmethod
    def load(cls, path):
        """The defaults, overridden by a settings file; a key that is not a field is a ValueError."""
        meta = parse_key_values(Path(path).read_text())
        unknown = sorted(set(meta) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown setting {', '.join(unknown)}")
        return cls.from_meta(meta)
