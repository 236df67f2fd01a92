# yanclint: scope=app
"""The corrected twin of bad/yancpath.py: every operation is legal."""

from repro.yancfs.client import YancClient


class CorrectApp:
    def __init__(self, sc):
        self.sc = sc
        self.root = "/net"

    def read_switch_id(self, sw):
        return self.sc.read_text(f"{self.root}/switches/{sw}/id")

    def stage_flow_file(self, sw, flow, commit=True):
        self.sc.write_text(f"{self.root}/switches/{sw}/flows/{flow}/priority", "10")
        if commit:
            self.commit(sw, flow)

    def commit(self, sw, flow):
        path = f"{self.root}/switches/{sw}/flows/{flow}/version"
        version = int(self.sc.read_text(path))
        self.sc.write_text(path, str(version + 1))

    def pushes_match_then_commits(self, sw, flow):
        self.sc.write_text(f"{self.root}/switches/{sw}/flows/{flow}/match.in_port", "3")
        self.sc.write_text(f"{self.root}/switches/{sw}/flows/{flow}/version", "1")

    def closes_fd_on_every_path(self, path):
        fd = self.sc.open(path)
        try:
            return self.sc.read(fd, 100)
        finally:
            self.sc.close(fd)

    def reads_event_buffer(self, sw):
        return self.sc.listdir(f"/net/switches/{sw}/events/myapp")

    def writes_packet_out_spool(self, sw, payload):
        self.sc.write_text(f"/net/switches/{sw}/packet_out/p1.app.1", payload)

    def queues_mkdir(self, sw):
        self.ring.prep("mkdir", f"{self.root}/switches/{sw}/flows/f1")

    def queues_unlink(self, sw):
        self.ring.prep("unlink", f"{self.root}/switches/{sw}/id")

    def queues_listdir(self, sw):
        self.ring.prep("listdir", f"{self.root}/switches/{sw}/events")

    def queues_write(self, sw):
        self.ring.prep_write_file(f"{self.root}/switches/{sw}/id", b"s1")

    def reads_xattr(self, sw):
        return self.sc.getxattr(f"{self.root}/switches/{sw}/id", "user.owner")

    def writes_xattr(self, sw):
        self.sc.setxattr(f"{self.root}/switches/{sw}/id", "user.owner", b"me")


class StagingApp:
    """Drives the real ``YancClient`` (swept alongside this fixture)."""

    def __init__(self, sc):
        self.client = YancClient(sc)

    def stages_then_commits(self, sw, flow, match, actions):
        self.client.create_flow(sw, flow, match, actions, commit=False)
        self.client.commit_flow(sw, flow)
