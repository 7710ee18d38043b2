"""Exception taxonomy shared by all modules.

Three failure classes map onto the CLI exit codes: configuration problems
(bad shapes, bad settings, malformed files) exit with 2, numeric/runtime
failures exit with 3, contract violations are programming errors and also
exit with 3.
"""


class BevSslError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BevSslError):
    """Invalid configuration, shapes, or input files. CLI exit code 2."""


class NumericError(BevSslError):
    """Non-finite values or numeric breakdown at runtime. CLI exit code 3."""


class ContractError(BevSslError):
    """A caller violated an API precondition. CLI exit code 3."""


def check_fields(section: str, obj, rules) -> None:
    """Raise "<section>.<field> must be <rule>, got <value>" for the first of
    `rules`, (field, holds, rule) triples, that does not hold in `obj`; an
    empty `section` names a top-level field alone."""
    for name, holds, rule in rules:
        if not holds:
            raise ConfigurationError(f"{section}.{name} must be {rule}, got "
                                     f"{getattr(obj, name)!r}".lstrip("."))
