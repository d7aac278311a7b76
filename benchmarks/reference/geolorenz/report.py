"""Deterministic report emission.

Payload files (json, csv) are pure functions of the run configuration:
keys are sorted, floats carry 17 significant digits, rows arrive
pre-ordered by the caller, and no wall-clock data enters them. The
envelope file records provenance (version, config hash and echo,
timestamp) and is the only place a timestamp appears.
"""

import datetime
import json
import math
import os


def fmt_number(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def sanitize(payload):
    """Replace non-finite floats with strings so strict JSON round-trips."""
    if isinstance(payload, dict):
        return {k: sanitize(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [sanitize(v) for v in payload]
    if isinstance(payload, float) and not math.isfinite(payload):
        return repr(payload)
    return payload


class Emitter:
    """Writes one command's payload files into an output directory."""

    def __init__(self, outdir, fmt="both"):
        self.outdir = str(outdir)
        self.fmt = fmt
        self.written = []
        os.makedirs(self.outdir, exist_ok=True)

    def _path(self, name):
        return os.path.join(self.outdir, name)

    def emit_json(self, name, payload):
        if self.fmt == "csv":
            return None
        path = self._path(name + ".json")
        text = json.dumps(sanitize(payload), sort_keys=True, indent=2,
                          allow_nan=False)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
        self.written.append(name + ".json")
        return path

    def emit_csv(self, name, header, rows):
        if self.fmt == "json":
            return None
        path = self._path(name + ".csv")
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt_number(row[col]) for col in header))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        self.written.append(name + ".csv")
        return path

    def finish(self, config):
        """Write the config echo and the provenance envelope."""
        from . import __version__

        echo_path = self._path("config.echo.cfg")
        with open(echo_path, "w", encoding="ascii") as fh:
            fh.write(config.render())
        envelope = {
            "tool": "geolorenz",
            "version": __version__,
            "config_sha256": config.digest(),
            "config_echo": config.render(),
            "timestamp_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "payload_files": sorted(self.written),
        }
        path = self._path("envelope.json")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        return path
