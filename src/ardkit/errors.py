"""Exception hierarchy shared across the toolkit.

Every fatal condition raises a subclass of :class:`ArdkitError` so the CLI
can map failures to exit code 2 uniformly.
"""

from __future__ import annotations


class ArdkitError(Exception):
    """Base class for all fatal toolkit errors."""


class IngestError(ArdkitError):
    """Raw table, schema mapping, or source registry problem."""


class CleaningError(ArdkitError):
    """Cleaning could not produce a structurally valid dataset."""


class CorrespondenceError(ArdkitError):
    """Invalid correspondence table or redistribution request."""


class RouteError(CorrespondenceError):
    """No sequence of correspondence tables links two boundary editions."""


class PrivacyError(ArdkitError):
    """Disclosure-control transform applied to unsuitable data."""


class ConvergenceError(ArdkitError):
    """Clean/QA loop still changing after the configured iteration cap."""


class DocsError(ArdkitError):
    """Documentation emission failed (missing fields, tampered log)."""


class ConfigError(ArdkitError):
    """Pipeline configuration file is invalid."""
