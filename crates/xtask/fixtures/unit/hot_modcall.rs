// A hot entry making two module-qualified calls. `fabric` is another
// crate's module, so `fabric::send` binds to nothing here, not to this
// crate's `Session::send`. `wire` is this crate's module, so
// `wire::encode` binds to its free fn only, not to `Frame::encode`.

pub struct Session {
    queued: usize,
}

impl Session {
    pub fn send(&mut self) -> Vec<u8> {
        self.queued += 1;
        Vec::new()
    }
}

// analyze: hot
pub fn entry() {
    fabric::send(1);
    wire::encode(2);
}
