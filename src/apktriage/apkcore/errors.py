class ApkError(Exception):
    """Base class for APK parsing failures."""


class NotAZip(ApkError):
    pass


class NoManifest(ApkError):
    pass


class ManifestUndecodable(ApkError):
    pass


class CertUndecodable(ApkError):
    pass
