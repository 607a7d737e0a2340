"""§5.1.1 tables: compulsory memory load — idle and per-login.

Paper: idle memory 17 MB (Linux) vs 19 MB (TSE); minimal-login private
memory 752 KB (Linux/X), 3,244 KB (TSE typical), 2,100 KB (TSE light).
"""

from conftest import emit

from repro.core import format_table
from repro.memory import (
    LINUX_SESSION,
    TSE_SESSION_LIGHT,
    TSE_SESSION_TYPICAL,
    idle_memory_bytes,
    sessions_that_fit,
)
from repro.units import MB, mb


def reproduce_session_memory():
    return {
        "idle": {
            "linux": idle_memory_bytes("linux"),
            "nt_tse": idle_memory_bytes("nt_tse"),
        },
        "sessions": (LINUX_SESSION, TSE_SESSION_TYPICAL, TSE_SESSION_LIGHT),
        "capacity_128mb": {
            "linux": sessions_that_fit("linux", mb(128)),
            "nt_tse": sessions_that_fit("nt_tse", mb(128)),
            "nt_tse_light": sessions_that_fit("nt_tse", mb(128), variant="light"),
        },
    }


def test_tab_session_memory():
    data = reproduce_session_memory()

    for session in data["sessions"]:
        rows = [(p.name, f"{p.private_kb:,} KB") for p in session.processes]
        rows.append(("Total", f"{session.total_kb:,} KB"))
        emit(
            format_table(
                ["process", "private"],
                rows,
                title=f"§5.1.1 minimal login: {session.os_name} ({session.variant})",
            )
        )
    emit(
        format_table(
            ["metric", "linux", "nt_tse"],
            [
                (
                    "idle memory",
                    f"{data['idle']['linux'] // MB} MB",
                    f"{data['idle']['nt_tse'] // MB} MB",
                ),
                (
                    "logins in 128 MB",
                    data["capacity_128mb"]["linux"],
                    f"{data['capacity_128mb']['nt_tse']} "
                    f"({data['capacity_128mb']['nt_tse_light']} light)",
                ),
            ],
        )
    )

    # Exact paper figures.
    assert data["idle"]["linux"] == 17 * MB
    assert data["idle"]["nt_tse"] == 19 * MB
    linux, tse_typ, tse_light = data["sessions"]
    assert linux.total_kb == 752
    assert tse_typ.total_kb == 3244
    assert tse_light.total_kb == 2100
    assert (
        data["capacity_128mb"]["linux"]
        > data["capacity_128mb"]["nt_tse_light"]
        > data["capacity_128mb"]["nt_tse"]
    )
