"""Measurement-set JSON as parse_measurement_set reads it, for test inputs."""

from polyrig.offio import json_dumps, measurement_to_dict


def measurements_to_json(dim, measurements) -> str:
    """{'dim': dim, 'measurements': [...]}, each entry measurement_to_dict's."""
    return json_dumps({"dim": dim, "measurements": [measurement_to_dict(m) for m in measurements]})
