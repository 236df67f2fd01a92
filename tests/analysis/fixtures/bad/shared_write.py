# yanclint: scope=app
"""Bad fixture: flow spec staged with no commit in the same function."""


def stage_without_commit(sc, base):
    # Spec files written, version never bumped: the driver never sees this.
    sc.write_text(f"{base}/match.dl_type", "0x800")  # bad: shared-write-discipline
    sc.write_text(f"{base}/action.out", "2")  # bad: shared-write-discipline
    sc.write_text(f"{base}/priority", "7")  # bad: shared-write-discipline
    sc.write_text(f"{base}/idle_timeout", "30")  # bad: shared-write-discipline
    sc.write_text(f"{base}/cookie", "0x1")  # bad: shared-write-discipline


def create_and_forget(client):
    client.create_flow("s1", "f1", {"match.dl_type": "0x800"}, commit=False)  # bad: shared-write-discipline
