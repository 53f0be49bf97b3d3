package pdisk

// SyncPath and RenamePath expose CommitRename's filesystem steps to the
// external tests, which record the order other packages' commit points
// reach them in.
var SyncPath, RenamePath = &syncPath, &renamePath
