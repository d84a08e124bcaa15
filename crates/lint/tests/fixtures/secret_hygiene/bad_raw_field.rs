pub struct SessionKeys {
    pub suite: CipherSuite,
    pub client_write_key: Vec<u8>,
}

// One `Secret` field does not cover the raw buffer next to it.
pub struct ConnectionSecrets {
    pub master_secret: Secret,
    pub resumption_master: [u8; 48],
}

// No raw buffer is spelled, but nothing says the limbs wipe themselves.
pub struct DhSecret {
    x: BigUint,
}
