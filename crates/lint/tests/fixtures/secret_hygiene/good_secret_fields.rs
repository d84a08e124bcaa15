pub struct SessionKeys {
    pub suite: CipherSuite,
    pub client_write_key: Secret,
    pub client_to_server_seq: u64,
}

// Both variants wipe themselves on drop; a wrapper `Drop` would forbid
// the by-value match that moves the secret into the key exchange.
enum KexSecret {
    Ecdhe(x25519::SecretKey),
    Dhe(DhSecret),
}

// Public bytes beside the key bytes carry the name of what they are.
pub type Random = [u8; 32];

pub struct ConnectionSecrets {
    pub master_secret: Secret,
    pub client_random: Random,
}

pub struct KeyMaterial {
    pub toward_client_hop: SessionKeys,
    pub toward_server_hop: SessionKeys,
}
