package server

// CommitQueue is the journal queue bound, for the external tests.
const CommitQueue = commitQueue
